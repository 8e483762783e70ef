(* Shared machinery of the four workloads: clocks, the report, the
   host-speed reference, timed calls into the file system, durable-image
   checks, exact-count fingerprints, and the per-layer probes that time
   public calls from outside (allocator cycles, replay of the captured
   persistence stream). Nothing here reaches inside a library. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module Errno = Vfs.Errno

let now () = Int64.to_int (Monotonic_clock.now ())
let word_bytes = Sys.word_size / 8

(* {1 Report} *)

type metric = { m_name : string; m_unit : string; m_value : float; m_n : int }

type report = {
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** correctness failures, newest first *)
}

let report () = { metrics = []; attempted = 0; failed = 0; problems = [] }

(* [n] is the sample count behind the value (0 for exact counts). *)
let put r ?(n = 0) name unit_ value =
  r.metrics <- { m_name = name; m_unit = unit_; m_value = value; m_n = n } :: r.metrics

let problem r fmt = Printf.ksprintf (fun s -> r.problems <- s :: r.problems) fmt

(* Run one request of the mix; an exception escaping the library is a
   failed op, not the end of the run. *)
let guard r f =
  try f ()
  with e ->
    r.failed <- r.failed + 1;
    problem r "exception: %s" (Printexc.to_string e)

(* An errno the workload's mix does not permit. *)
let fail r what e =
  r.failed <- r.failed + 1;
  problem r "%s: %s" what (Errno.to_string e)

let find r name =
  List.find_opt (fun m -> m.m_name = name) r.metrics

(* Timing summary of one series (µs) under [prefix]: median and p99 when
   the sample supports them, always with the sample count. *)
let put_timing r ~prefix ?(p99 = true) (xs : float array) =
  let s = Stats.summarize xs in
  (match s.Stats.p50 with
  | Some v -> put r ~n:s.Stats.n (prefix ^ "_p50_us") "us" v
  | None -> ());
  if p99 then
    match s.Stats.p99 with
    | Some v -> put r ~n:s.Stats.n (prefix ^ "_p99_us") "us" v
    | None -> ()

(* CPU seconds this process has run (all domains, user + system). Time
   the hypervisor steals from this machine's cores, and time the domains
   spend blocked, never shows here: on a shared two-core host this is
   the steady measure of what an op costs. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak major heap so far. Runs read it once set-up and the fixed op
   prefix are done: that work is the same in every run of a seed, so
   the figure does not drift with how many ops the timed phase fits. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * word_bytes) /. 1048576.

(* Fresh start for a setup repetition: the previous instance's garbage
   must not count towards the next one's time or peak heap. One full
   major cycle was seen to leave the old volume alive; two free it. *)
let settle () =
  Gc.full_major ();
  Gc.full_major ()

(* {1 Host speed}

   The host's speed drifts: on the shared two-core machine this was
   written on, the same work took up to 1.8x the CPU time an hour later.
   So every run also times a fixed kernel that shares no code with the
   program under test, and scales its bounded timings to a host on which
   that kernel takes [ref_nominal_us] of CPU. *)

let ref_nominal_us = 400.

(* Pseudo-random reads and writes over a 4 MiB buffer (about a
   last-level cache) and integer arithmetic. It allocates nothing, and
   its buffer lives outside the OCaml heap, so it neither runs nor
   paces the garbage collector, whose cost follows the program's own
   heap. *)
let ref_buf =
  let b = Bigarray.(Array1.create int8_unsigned c_layout (4 * 1024 * 1024)) in
  Bigarray.Array1.fill b 1;
  b

let reference_kernel () =
  let mask = Bigarray.Array1.dim ref_buf - 1 in
  let x = ref 12345 and h = ref 0 in
  for _ = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land mask in
    h := (!h * 31) + Bigarray.Array1.unsafe_get ref_buf i;
    Bigarray.Array1.unsafe_set ref_buf ((i + 4096) land mask) (!h land 0xFF)
  done;
  !h

external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
  [@@noalloc]

(* Kernel samples taken before each set-up, and between the pieces of
   the timed phase. *)
let ref_setup = Stats.Samples.create ()
let ref_run = Stats.Samples.create ()

(* CPU µs of one kernel (mean of four) on the calling domain into
   [into]. Callers sample only while no domain of the workload runs, and
   an untimed first pass brings the buffer back into the cache after the
   workload has evicted it, so the figure reflects the host alone, not
   contention or evictions the program under test causes. *)
let ref_sample into =
  ignore (Sys.opaque_identity (reference_kernel ()));
  let c0 = thread_cpu_ns () in
  for _ = 1 to 4 do
    ignore (Sys.opaque_identity (reference_kernel ()))
  done;
  let c1 = thread_cpu_ns () in
  Stats.Samples.add into (Int64.to_float (Int64.sub c1 c0) /. 4e3)

let piece_ns = 500_000_000

(* One piece of a timed phase: wall ns, process CPU s, ops completed. *)
type piece = { p_wall : int; p_cpu : float; p_ops : int }

(* Run the workload in pieces until [secs] of wall time have gone into
   them. [f deadline] runs one piece and returns the ops it completed;
   the piece ends by [deadline] (or, if it cannot be split, when it is
   done) with all of the workload's domains joined. Before each piece,
   [between] does the workload's upkeep and the host's speed is sampled
   into [ref_run] unless [sample] is false; neither counts in a piece. *)
let in_pieces ?(sample = true) ?(between = ignore) secs f =
  let budget = int_of_float (secs *. 1e9) in
  let wall = ref 0 and pieces = ref [] in
  while !wall < budget do
    between ();
    if sample then ref_sample ref_run;
    let c0 = cpu_s () and t0 = now () in
    let ops = f (t0 + piece_ns) in
    let dt = now () - t0 in
    wall := !wall + dt;
    pieces := { p_wall = dt; p_cpu = cpu_s () -. c0; p_ops = ops } :: !pieces
  done;
  List.rev !pieces

let pieces_wall ps = float_of_int (List.fold_left (fun a p -> a + p.p_wall) 0 ps) /. 1e9

(* CPU µs per op: the median over the pieces, so a burst of
   interference from the host (a descheduled core leaves the other
   domain spinning at a GC barrier, say) in a few pieces does not move
   it. *)
let cpu_us_per_op ps =
  Stats.median
    (Array.of_list
       (List.filter_map
          (fun p ->
            if p.p_ops > 0 then Some (p.p_cpu *. 1e6 /. float_of_int p.p_ops) else None)
          ps))

(* Factor that scales a time measured under [samples]' conditions to the
   nominal host; the kernel time behind it is printed as [name]. *)
let host_scale r name samples =
  if Stats.Samples.to_array samples = [||] then ref_sample samples;
  let xs = Stats.Samples.to_array samples in
  let ref_us = Stats.median xs in
  put r ~n:(Array.length xs) name "us" ref_us;
  ref_nominal_us /. ref_us

(* The bounded timings: CPU per op and set-up time, each scaled by the
   kernel timed under the same conditions, each printed unscaled too. *)
let put_scaled r ~ops ~cpu_us ~setups =
  let setup = Stats.median setups in
  put r ~n:ops "cpu_us_per_op" "us" (cpu_us *. host_scale r "host.ref_run_us" ref_run);
  put r ~n:ops "cpu_us_per_op.unscaled" "us" cpu_us;
  put r ~n:(Array.length setups) "setup_s" "s"
    (setup *. host_scale r "host.ref_setup_us" ref_setup);
  put r ~n:(Array.length setups) "setup_s.unscaled" "s" setup

(* {1 Timed calls} *)

type kind = Create | Write | Read | Stat | Unlink | Other

let kinds = [ Create; Write; Read; Stat; Unlink; Other ]

let kind_name = function
  | Create -> "create"
  | Write -> "write"
  | Read -> "read"
  | Stat -> "stat"
  | Unlink -> "unlink"
  | Other -> "other"

let kind_index = function
  | Create -> 0
  | Write -> 1
  | Read -> 2
  | Stat -> 3
  | Unlink -> 4
  | Other -> 5

(* Per-op latency samples (µs) by kind, plus the pooled series. With a
   span recorder attached, every call also opens a span named after the
   library entry point ([span], by default [sq.<kind>]), under the
   request span the caller opened. *)
type lat = {
  by_kind : Stats.Samples.t array;
  all : Stats.Samples.t;
  mutable ops : int;
  mutable spans : Spans.t option;
  mutable req : int;
}

let lat () =
  {
    by_kind = Array.init (List.length kinds) (fun _ -> Stats.Samples.create ());
    all = Stats.Samples.create ();
    ops = 0;
    spans = None;
    req = 0;
  }

let call ?span l kind f =
  let sp =
    match l.spans with
    | None -> None
    | Some s ->
        let name = match span with Some n -> n | None -> "sq." ^ kind_name kind in
        Some (s, Spans.enter s ~req:l.req name)
  in
  let t0 = now () in
  let res = f () in
  let dt = float_of_int (now () - t0) /. 1e3 in
  (match sp with Some (s, id) -> Spans.leave s id | None -> ());
  Stats.Samples.add l.by_kind.(kind_index kind) dt;
  Stats.Samples.add l.all dt;
  l.ops <- l.ops + 1;
  res

(* A request span around one step of the workload (traced runs only). *)
let request l name f =
  match l.spans with
  | None -> f ()
  | Some s ->
      l.req <- l.req + 1;
      Spans.with_span s ~req:l.req name f

(* One domain's requests, or a closed loop's: [n] steps, or steps until
   [deadline]. *)
let steps n step r l =
  for _ = 1 to n do
    guard r (fun () -> step l r)
  done

let steps_until deadline step r l =
  while now () < deadline do
    guard r (fun () -> step l r)
  done

(* The samples of several domains' series as one. *)
let merge_lats (ls : lat array) =
  let m = lat () in
  Array.iter
    (fun l ->
      Array.iteri (fun k s -> Stats.Samples.append m.by_kind.(k) s) l.by_kind;
      Stats.Samples.append m.all l.all;
      m.ops <- m.ops + l.ops)
    ls;
  m

let put_lat r (l : lat) =
  put_timing r ~prefix:"op" (Stats.Samples.to_array l.all);
  List.iter
    (fun k ->
      let xs = Stats.Samples.to_array l.by_kind.(kind_index k) in
      if Array.length xs > 0 then put_timing r ~prefix:(kind_name k) ~p99:false xs)
    kinds

(* {1 Volumes} *)

let new_volume ~size =
  let dev = Device.create ~latency:Pmem.Latency.optane ~size () in
  Sq.mkfs dev;
  match Sq.mount dev with
  | Ok ctx -> ctx
  | Error e -> failwith ("mount after mkfs: " ^ Errno.to_string e)

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Errno.to_string e)

(* A device holding only the durable bytes of [dev]: what a crash right
   now would leave. Built from the backed spans, so a multi-GB sparse
   volume never materializes. *)
let durable_copy dev =
  let spans =
    List.map
      (fun (off, len) -> (off, Bytes.to_string (Device.peek dev ~off ~len)))
      (Device.backed_spans dev)
  in
  Device.of_spans ~latency:Pmem.Latency.optane ~size:(Device.size dev) spans

(* Remount the durable image alone and fsck it. Returns the remounted
   context (for content checks) and the two wall times in ms. *)
let remount_check r dev =
  let copy = durable_copy dev in
  let t0 = now () in
  match Sq.mount copy with
  | Error e ->
      problem r "remount of the durable image failed: %s" (Errno.to_string e);
      None
  | Ok ctx ->
      let t1 = now () in
      let errs = Sq.Fsck.check ctx in
      let t2 = now () in
      List.iter (fun e -> problem r "fsck after remount: %s" e) errs;
      r.failed <- r.failed + List.length errs;
      Some (ctx, float_of_int (t1 - t0) /. 1e6, float_of_int (t2 - t1) /. 1e6)

(* Compare one file's content on the remounted image with the model. *)
let check_file r ctx path expect =
  match Sq.read ctx path ~off:0 ~len:(String.length expect + 1) with
  | Ok got when got = expect -> true
  | Ok got ->
      problem r "%s: %d bytes on the durable image, %d acknowledged" path
        (String.length got) (String.length expect);
      false
  | Error e ->
      problem r "%s: %s on the durable image" path (Errno.to_string e);
      false

(* {1 Exact counts}

   Counts the simulator makes over a fixed, seed-determined op prefix.
   They must repeat bit for bit — across the setup repetitions of one
   run and across runs with the same seed (remembered under
   [.perfbench/]) — or the benchmark is not measuring the same work. *)

type counts = {
  c_ops : int;
  c_stats : Pmem.Stats.t;  (** device counter deltas over the prefix *)
  c_sim_ns : int;
  c_pending_at_fence : int;  (** sum of pending lines seen at each fence *)
  c_token_uses : int;
  c_hash : int64;  (** durable hash after the prefix *)
}

let stats_delta (a : Pmem.Stats.t) (b : Pmem.Stats.t) =
  let open Pmem.Stats in
  {
    (create ()) with
    stores = b.stores - a.stores;
    bytes_stored = b.bytes_stored - a.bytes_stored;
    reads = b.reads - a.reads;
    bytes_read = b.bytes_read - a.bytes_read;
    flushes = b.flushes - a.flushes;
    fences = b.fences - a.fences;
    lines_drained = b.lines_drained - a.lines_drained;
  }

(* Run [f] (which performs [ops] operations on [ctx]) under the counting
   hooks: device stats, the fence hook sampling the pending-line table,
   and the typestate token counter. None of them perturbs the run. *)
let count_prefix (ctx : Sq.Fsctx.t) f =
  let dev = ctx.Sq.Fsctx.dev in
  let m = Obs.Metrics.create () in
  let pending = ref 0 in
  Device.set_fence_hook dev
    (Some (fun d -> pending := !pending + Device.pending_line_count d));
  Typestate.Token.set_metrics ctx.Sq.Fsctx.reg (Some m);
  let s0 = Pmem.Stats.copy (Device.stats dev) and t0 = Device.now_ns dev in
  let ops =
    Fun.protect
      ~finally:(fun () ->
        Device.set_fence_hook dev None;
        Typestate.Token.set_metrics ctx.Sq.Fsctx.reg None)
      f
  in
  {
    c_ops = ops;
    c_stats = stats_delta s0 (Device.stats dev);
    c_sim_ns = Device.now_ns dev - t0;
    c_pending_at_fence = !pending;
    c_token_uses = Obs.Metrics.counter m "token.uses";
    c_hash = Device.durable_hash dev;
  }

let counts_key c =
  let s = c.c_stats in
  Printf.sprintf
    "ops=%d stores=%d bytes_stored=%d reads=%d bytes_read=%d flushes=%d \
     fences=%d lines_drained=%d sim_ns=%d pending_at_fence=%d token_uses=%d \
     durable_hash=%Lx"
    c.c_ops s.Pmem.Stats.stores s.Pmem.Stats.bytes_stored s.Pmem.Stats.reads
    s.Pmem.Stats.bytes_read s.Pmem.Stats.flushes s.Pmem.Stats.fences
    s.Pmem.Stats.lines_drained c.c_sim_ns c.c_pending_at_fence c.c_token_uses
    c.c_hash

let state_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Check [key] against every repetition of this run and against the key
   recorded by an earlier run of the same build with the same workload
   and seed (a changed program may legitimately count differently). *)
let check_repeat r ~workload ~seed keys =
  (match keys with
  | [] -> ()
  | k0 :: rest ->
      List.iteri
        (fun i k ->
          if k <> k0 then
            problem r "exact counts differ between setup 1 and setup %d:\n  %s\n  %s"
              (i + 2) k0 k)
        rest;
      ensure_dir state_dir;
      let path =
        Filename.concat state_dir
          (Printf.sprintf "counts-%s-%d-%s.txt" workload seed
             (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))
      in
      if Sys.file_exists path then begin
        let ic = open_in path in
        let prev =
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
        in
        if prev <> k0 then
          problem r "exact counts differ from an earlier run of this seed:\n  %s\n  %s"
            prev k0
      end
      else begin
        let oc = open_out path in
        output_string oc (k0 ^ "\n");
        close_out oc
      end);
  match keys with k :: _ -> print_endline ("exact " ^ k) | [] -> ()

let put_counts r c =
  let s = c.c_stats in
  let per x = float_of_int x /. float_of_int (max 1 c.c_ops) in
  put r "pmem.stores_per_op" "count" (per s.Pmem.Stats.stores);
  put r "pmem.bytes_stored_per_op" "B" (per s.Pmem.Stats.bytes_stored);
  put r "pmem.flushes_per_op" "count" (per s.Pmem.Stats.flushes);
  put r "pmem.fences_per_op" "count" (per s.Pmem.Stats.fences);
  put r "pmem.reads_per_op" "count" (per s.Pmem.Stats.reads);
  put r "pmem.lines_drained_per_fence" "count"
    (float_of_int s.Pmem.Stats.lines_drained
    /. float_of_int (max 1 s.Pmem.Stats.fences));
  put r "pmem.pending_lines_at_fence" "count"
    (float_of_int c.c_pending_at_fence /. float_of_int (max 1 s.Pmem.Stats.fences));
  put r "typestate.token_uses_per_op" "count" (per c.c_token_uses)

(* {1 Per-layer probes} *)

(* Alloc+free cycles on a fresh allocator of the kind and geometry the
   volume mounted with, in batches so the free structures are exercised
   beyond a single push/pop. ns per alloc+free pair, median of 5. *)
let alloc_probe (ctx : Sq.Fsctx.t) =
  let module A = Sq.Alloc in
  let geo = ctx.Sq.Fsctx.geo and cpus = ctx.Sq.Fsctx.cpus in
  let fresh () =
    if A.is_indexed ctx.Sq.Fsctx.alloc then A.indexed_populated ~cpus geo
    else A.populated ~cpus geo
  in
  let time ~avail alloc free =
    let a = fresh () in
    let batch = max 1 (min 256 (avail a / 2)) in
    let rounds = 10240 / batch in
    let held = Array.make batch 0 in
    let t0 = now () in
    for _ = 1 to rounds do
      for i = 0 to batch - 1 do
        match alloc a with Some x -> held.(i) <- x | None -> failwith "alloc probe: full"
      done;
      for i = 0 to batch - 1 do
        free a held.(i)
      done
    done;
    float_of_int (now () - t0) /. float_of_int (batch * rounds)
  in
  let med f = Stats.median (Array.init 5 (fun _ -> f ())) in
  let page =
    med (fun () ->
        time ~avail:A.free_page_count
          (fun a -> A.alloc_page ~cpu:0 a)
          (fun a p -> A.free_page ~cpu:0 a p))
  in
  let inode = med (fun () -> time ~avail:A.free_inode_count A.alloc_inode A.free_inode) in
  (page, inode)

(* The store/flush/fence events of a device trace. *)
let persistence_events rec_ =
  Array.of_list
    (List.filter
       (fun (e : Obs.Event.t) ->
         match e.Obs.Event.k with
         | Obs.Event.Store _ | Obs.Event.Flush _ | Obs.Event.Fence -> true
         | _ -> false)
       (Obs.Recorder.to_list rec_))

(* Capture the persistence stream of [f] with the device tracer. *)
let capture dev f =
  let rec_ = Obs.Recorder.create ~capacity:65536 () in
  Device.set_tracer dev (Some rec_);
  let v = Fun.protect ~finally:(fun () -> Device.set_tracer dev None) f in
  (v, persistence_events rec_)

(* Replay a captured stream through the device's public calls on a
   fresh device of the same size and backing. Non-temporal and coarse
   stores flush their own range, so the flush event the device emitted
   for that is dropped. Wall ns of the median of three passes (the first
   also backs any sparse chunks). *)
let replay ~size ~sparse (evs : Obs.Event.t array) =
  let dev = Device.create ~latency:Pmem.Latency.optane ~sparse ~size () in
  let own_flush = ref None in
  let calls =
    Array.of_list
      (List.filter_map
         (fun (e : Obs.Event.t) ->
           let flushed = !own_flush in
           own_flush := None;
           match e.Obs.Event.k with
           | Obs.Event.Store { off; data; nt; coarse } ->
               let len = String.length data in
               if nt then own_flush := Some (off, len);
               Some
                 (if coarse && String.for_all (fun c -> c = '\000') data then fun () ->
                    Device.zero dev ~off ~len
                  else if coarse then fun () -> Device.store_coarse dev ~off data
                  else if nt then fun () -> Device.store_nt dev ~off data
                  else fun () -> Device.store dev ~off data)
           | Obs.Event.Flush { off; len } ->
               if flushed = Some (off, len) then None
               else Some (fun () -> Device.flush dev ~off ~len)
           | Obs.Event.Fence -> Some (fun () -> Device.fence dev)
           | _ -> None)
         (Array.to_list evs))
  in
  let pass () =
    let t0 = now () in
    Array.iter (fun f -> f ()) calls;
    float_of_int (now () - t0)
  in
  Stats.median (Array.init 3 (fun _ -> pass ()))
