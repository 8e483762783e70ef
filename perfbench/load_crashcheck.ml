(* crashcheck: the cost a fuzzer user pays. Clean fuzz sequences
   (no mutants, no shrinking, the default 256 KiB volume) checked by
   [Fuzzer.Parallel.run_stats] on one domain per core. An op here is one
   checked sequence: its time goes to crash-view enumeration, view
   mounts, fsck and the reference-model oracle, not to running ops.

   The traced run splits that cost by layer with its own executor, which
   makes the same public calls [Fuzzer.Exec.run] makes (crash views,
   view hashes, view mounts, fsck, the oracle) with a span around each;
   its fence and state counts must equal [Exec.run]'s on the same
   sequences. *)

open Common
module H = Crashcheck.Harness
module Logical = Vfs.Logical

let name = "crashcheck"
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))
let batch = 64
let gen_cfg = { Fuzzer.Gen.op_budget = 8; buggy_rate = 0. }

let cfg ~seed b =
  {
    Fuzzer.default_cfg with
    Fuzzer.seed = (seed * 100_003) + b;
    iters = batch;
    buggy_rate = 0.;
    shrink = false;
  }

(* The sequence [Fuzzer] generates for iteration [iter] of [cfg]. *)
let sequence (c : Fuzzer.cfg) iter =
  Fuzzer.Gen.sequence (Random.State.make [| 0x5EED; c.Fuzzer.seed; iter |]) gen_cfg

(* One batch through the work-stealing runner, with per-sequence wall
   times taken from its completion callback (serialized by the runner):
   a domain's sequence ran from its previous completion (or the batch
   start) to this one. *)
let run_batch ?(jobs = jobs) r (c : Fuzzer.cfg) (seq_us : Stats.Samples.t) =
  let last = Hashtbl.create 4 in
  let t0 = now () in
  let progress _ _ =
    let d = (Domain.self () :> int) and t = now () in
    let prev = Option.value ~default:t0 (Hashtbl.find_opt last d) in
    Stats.Samples.add seq_us (float_of_int (t - prev) /. 1e3);
    Hashtbl.replace last d t
  in
  let rep, shards = Fuzzer.Parallel.run_stats ~jobs ~progress c in
  let h = rep.Fuzzer.r_harness in
  List.iter
    (fun v -> problem r "crash-consistency violation: %s" v.H.v_detail)
    h.H.violations;
  r.failed <- r.failed + List.length h.H.violations + List.length rep.Fuzzer.r_found;
  r.attempted <- r.attempted + c.Fuzzer.iters;
  (rep, shards)

let report_key (rep : Fuzzer.report) =
  let h = rep.Fuzzer.r_harness in
  Printf.sprintf
    "seqs=%d ops=%d fences=%d states=%d deduped=%d divergences=%d sim_ns=%d"
    h.H.workloads h.H.ops_run h.H.fences_probed h.H.crash_states h.H.states_deduped
    rep.Fuzzer.r_divergences rep.Fuzzer.r_sim_ns

(* Set-up a fuzzing domain pays before its first check: a formatted,
   mounted 256 KiB volume and its scratch buffer. *)
let setup_once () =
  let t0 = now () in
  let dev = Device.create ~size:Fuzzer.default_cfg.Fuzzer.device_size () in
  Sq.Mount.mkfs dev;
  ignore (ok_exn "mount" (Sq.mount dev));
  ignore (Device.scratch dev);
  float_of_int (now () - t0) /. 1e9

let setup_reps = 31

(* {1 The traced executor} *)

type mirror = {
  dev : Device.t;
  tmpl : Bytes.t;
  hash : int64 array * int64;
  memo : (int64, (Logical.t, string) result) Hashtbl.t;
  sp : Spans.t;
  mutable fences : int;
  mutable states : int;
  mutable deduped : int;  (** states seen earlier in the same sequence *)
  mutable memo_hits : int;  (** states whose verdict came from the memo *)
  mutable mounted : int;
  mutable ops : int;
  mutable pending : int;
  mutable token_uses : int;
  stats : Pmem.Stats.t;  (** summed device counters of the sequences *)
}

let mirror () =
  let dev = Device.create ~size:Fuzzer.default_cfg.Fuzzer.device_size () in
  Sq.Mount.mkfs dev;
  let tmpl = Device.image_durable dev in
  {
    dev; tmpl; hash = Device.image_hash_state tmpl; memo = Hashtbl.create 1024;
    sp = Spans.create (); fences = 0; states = 0; deduped = 0; memo_hits = 0; mounted = 0;
    ops = 0; pending = 0; token_uses = 0; stats = Pmem.Stats.create ();
  }

exception Violation of string

(* One sequence, checked the way [Exec.run]'s delta engine checks it.
   [tracer] records the sequence's own persistence stream. *)
let mirror_seq ?tracer m r ~req ops =
  let span name f = Spans.with_span m.sp ~req name f in
  span "seq" @@ fun () ->
  let dev = m.dev in
  Device.reset ~hash:m.hash dev ~image:m.tmpl;
  let fs = ok_exn "mount" (Sq.mount dev) in
  Device.set_tracer dev tracer;
  let scr =
    match Device.attached_scratch dev with Some s -> s | None -> Device.scratch dev
  in
  let s0 = Pmem.Stats.copy (Device.stats dev) in
  let tokens = Obs.Metrics.create () in
  Typestate.Token.set_metrics fs.Sq.Fsctx.reg (Some tokens);
  let legal = ref [ Fuzzer.Ref_fs.capture Fuzzer.Ref_fs.empty ] in
  let seen = Hashtbl.create 64 in
  let check_state v =
    span "apply_view" (fun () -> Device.apply_view scr v);
    let d2 = Device.of_view scr in
    match Layout.Records.Superblock.read d2 with
    | None -> Error "crash image has no superblock"
    | Some sb -> (
        m.mounted <- m.mounted + 1;
        match
          span "fsck" (fun () ->
              Sq.Fsck.check_raw d2 sb.Layout.Records.Superblock.geometry)
        with
        | _ :: _ as errs -> Error ("raw invariants: " ^ String.concat " | " errs)
        | [] -> (
            match span "view_mount" (fun () -> Sq.mount d2) with
            | Error e -> Error ("crash image fails to mount: " ^ Errno.to_string e)
            | Ok fs2 -> (
                match span "fsck" (fun () -> Sq.Fsck.check fs2) with
                | _ :: _ as errs -> Error ("fsck: " ^ String.concat " | " errs)
                | [] ->
                    span "capture" (fun () ->
                        match Logical.capture (module Squirrelfs) fs2 with
                        | got -> Ok got
                        | exception Failure msg -> Error ("capture: " ^ msg)))))
  in
  let check_image v =
    m.states <- m.states + 1;
    let h = span "view_hash" (fun () -> Device.view_hash dev v) in
    if Hashtbl.mem seen h then m.deduped <- m.deduped + 1 else Hashtbl.replace seen h ();
    let verdict =
      match Hashtbl.find_opt m.memo h with
      | Some v ->
          m.memo_hits <- m.memo_hits + 1;
          v
      | None ->
          let v' = check_state v in
          Hashtbl.replace m.memo h v';
          v'
    in
    match verdict with
    | Error d -> raise (Violation d)
    | Ok got ->
        if
          not
            (span "oracle" (fun () ->
                 List.exists (fun st -> Logical.equal ~compare_data:false got st) !legal))
        then raise (Violation "recovered state is not prefix-consistent")
  in
  let probe d =
    span "probe" @@ fun () ->
    m.fences <- m.fences + 1;
    m.pending <- m.pending + Device.pending_line_count d;
    List.iter check_image
      (span "crash_views" (fun () -> Device.crash_views ~max_images:8 d))
  in
  (try
     Device.set_fence_hook dev (Some probe);
     let model = ref Fuzzer.Ref_fs.empty in
     let cap_prev = ref (Fuzzer.Ref_fs.capture Fuzzer.Ref_fs.empty) in
     List.iter
       (fun op ->
         let m_next, m_res, cap_next =
           span "oracle" (fun () ->
               let m_next, m_res = Fuzzer.Ref_fs.apply !model op in
               let cap = if m_res = Ok () then Fuzzer.Ref_fs.capture m_next else !cap_prev in
               (m_next, m_res, cap))
         in
         legal := if m_res = Ok () then [ !cap_prev; cap_next ] else [ !cap_prev ];
         let sq_res = span "op" (fun () -> Fuzzer.Exec.apply_sq fs op) in
         m.ops <- m.ops + 1;
         match (sq_res, m_res) with
         | Ok (), Ok () ->
             model := m_next;
             cap_prev := cap_next
         | Error a, Error b when a = b -> ()
         | Error (Errno.ENOSPC | Errno.EMLINK), Ok () -> ()
         | _ -> raise (Violation "differential: file system and model disagree"))
       ops;
     legal := [ !cap_prev ];
     probe dev;
     Device.set_fence_hook dev None;
     match span "fsck.live" (fun () -> Sq.Fsck.check fs) with
     | [] -> ()
     | errs -> raise (Violation ("live fsck: " ^ String.concat " | " errs))
   with Violation d ->
     Device.set_fence_hook dev None;
     r.failed <- r.failed + 1;
     problem r "traced executor: %s" d);
  Device.set_tracer dev None;
  Typestate.Token.set_metrics fs.Sq.Fsctx.reg None;
  m.token_uses <- m.token_uses + Obs.Metrics.counter tokens "token.uses";
  let d = stats_delta s0 (Device.stats dev) in
  let open Pmem.Stats in
  m.stats.stores <- m.stats.stores + d.stores;
  m.stats.bytes_stored <- m.stats.bytes_stored + d.bytes_stored;
  m.stats.reads <- m.stats.reads + d.reads;
  m.stats.flushes <- m.stats.flushes + d.flushes;
  m.stats.fences <- m.stats.fences + d.fences;
  m.stats.lines_drained <- m.stats.lines_drained + d.lines_drained

(* {1 Run} *)

let run ~seed ~seconds ~trace =
  let r = report () in
  let setups =
    Array.init setup_reps (fun _ ->
        settle ();
        ref_sample ref_setup;
        setup_once ())
  in
  (* batch 0 is the fixed prefix whose counts must repeat; on one domain,
     so the heap it leaves is the same every run *)
  let seq_us = Stats.Samples.create () in
  let reps =
    List.init 2 (fun _ -> fst (run_batch ~jobs:1 r (cfg ~seed 0) (Stats.Samples.create ())))
  in
  check_repeat r ~workload:name ~seed (List.map report_key reps);
  let heap_mb = peak_heap_mb () in
  let rep0 = List.hd reps in
  let deadline secs = now () + int_of_float (secs *. 1e9) in
  if not trace then begin
    (* batches run to completion; the host's speed is sampled between
       them, while neither domain works *)
    let b = ref 1 and seqs = ref 0 and states = ref 0 and sim = ref 0 in
    let pieces =
      in_pieces seconds (fun _ ->
          let rep, _ = run_batch r (cfg ~seed !b) seq_us in
          let h = rep.Fuzzer.r_harness in
          seqs := !seqs + h.H.workloads;
          states := !states + h.H.crash_states;
          sim := !sim + rep.Fuzzer.r_sim_ns;
          incr b;
          h.H.workloads)
    in
    let wall = pieces_wall pieces in
    put_scaled r ~ops:!seqs ~cpu_us:(cpu_us_per_op pieces) ~setups;
    put r ~n:!seqs "sim_ns_per_op" "ns" (float_of_int !sim /. float_of_int !seqs);
    put r "heap_mb" "MB" heap_mb;
    put r ~n:!seqs "ops_per_s" "1/s" (float_of_int !seqs /. wall);
    put_timing r ~prefix:"op" (Stats.Samples.to_array seq_us);
    put r ~n:!seqs "states_per_s" "1/s" (float_of_int !states /. wall);
    (match Stats.percentile (Stats.Samples.to_array seq_us) 0.5 with
    | Some v -> put r ~n:!seqs "seq_p50_ms" "ms" (v /. 1e3)
    | None -> ())
  end
  else begin
    (* [Exec.run] and the traced executor, one sequence each in turn on
       this domain, so drift in the host's speed hits both alike *)
    let pool = Fuzzer.Exec.Pool.create () and m = mirror () in
    let stop = deadline seconds in
    let seqs = ref [] and exec_ns = ref 0 and mirror_ns = ref 0 in
    let fences = ref 0 and states = ref 0 and deduped = ref 0 and ops_run = ref 0 in
    let words = ref 0. and gcs = ref 0 in
    let b = ref 1 and i = ref 0 in
    while now () < stop do
      let ops = sequence (cfg ~seed !b) !i in
      let w0 = Gc.minor_words () and gc0 = (Gc.quick_stat ()).Gc.minor_collections in
      let t0 = now () in
      let o = Fuzzer.Exec.run ~pool ops in
      let t1 = now () in
      words := !words +. (Gc.minor_words () -. w0);
      gcs := !gcs + ((Gc.quick_stat ()).Gc.minor_collections - gc0);
      mirror_seq m r ~req:(List.length !seqs) ops;
      mirror_ns := !mirror_ns + (now () - t1);
      exec_ns := !exec_ns + (t1 - t0);
      let h = o.Fuzzer.Exec.o_report in
      fences := !fences + h.H.fences_probed;
      states := !states + h.H.crash_states;
      deduped := !deduped + h.H.states_deduped;
      ops_run := !ops_run + h.H.ops_run;
      if o.Fuzzer.Exec.o_fail <> None then begin
        r.failed <- r.failed + 1;
        problem r "Exec.run found a violation in a clean sequence"
      end;
      seqs := ops :: !seqs;
      incr i;
      if !i = batch then (incr b; i := 0)
    done;
    let nseq = List.length !seqs in
    r.attempted <- r.attempted + (2 * nseq);
    if m.fences <> !fences || m.states <> !states || m.deduped <> !deduped then
      problem r
        "traced executor and Exec.run disagree: fences %d/%d states %d/%d deduped %d/%d"
        m.fences !fences m.states !states m.deduped !deduped;
    Printf.printf "reconciled: %d sequences, %d fences, %d states, %d deduped\n" nseq
      m.fences m.states m.deduped;
    (* exact counts and the persistence stream, over the fixed prefix
       batch's sequences *)
    let rec_ = Obs.Recorder.create ~capacity:65536 () in
    let fixed = mirror () in
    List.iteri
      (fun req ops -> mirror_seq ~tracer:rec_ fixed r ~req ops)
      (List.init batch (sequence (cfg ~seed 0)));
    let h0 = rep0.Fuzzer.r_harness in
    if fixed.fences <> h0.H.fences_probed || fixed.states <> h0.H.crash_states then
      problem r "traced executor and the prefix batch disagree: fences %d/%d states %d/%d"
        fixed.fences h0.H.fences_probed fixed.states h0.H.crash_states;
    let replay_us =
      replay ~size:(Device.size m.dev) ~sparse:false (persistence_events rec_)
      /. 1e3 /. float_of_int (max 1 fixed.ops)
    in
    let minor_words = !words /. float_of_int (max 1 !ops_run) in
    let sp = m.sp in
    let totals = Spans.totals sp in
    let avg_us name n =
      let d = List.fold_left (fun a (k, _, d, _) -> if k = name then a + d else a) 0 totals in
      float_of_int d /. 1e3 /. float_of_int (max 1 n)
    in
    put r "pmem.replay_us_per_op" "us" replay_us;
    put r ~n:m.ops "core.self_us_per_op" "us"
      ((float_of_int (Spans.total_self sp "op") /. 1e3 /. float_of_int (max 1 m.ops))
      -. replay_us);
    put r "core.minor_words_per_op" "words" minor_words;
    put_counts r
      {
        c_ops = fixed.ops; c_stats = fixed.stats; c_sim_ns = 0;
        c_pending_at_fence = fixed.pending; c_token_uses = fixed.token_uses; c_hash = 0L;
      };
    put r "pmem.resident_mb" "MB" (float_of_int (Device.resident_bytes m.dev) /. 1048576.);
    (match remount_check r m.dev with
    | Some (ctx2, mount_ms, fsck_ms) ->
        put r "mount.remount_ms" "ms" mount_ms;
        put r "fsck.check_ms" "ms" fsck_ms;
        let page_ns, inode_ns = alloc_probe ctx2 in
        put r "alloc.page_ns" "ns" page_ns;
        put r "alloc.inode_ns" "ns" inode_ns
    | None -> ());
    put r "crash.states_per_seq" "count"
      (float_of_int h0.H.crash_states /. float_of_int h0.H.workloads);
    put r "crash.images_per_fence" "count"
      (float_of_int m.states /. float_of_int (max 1 m.fences));
    put r "crash.dedup_ratio" "ratio"
      (float_of_int m.memo_hits /. float_of_int (max 1 m.states));
    put r ~n:m.fences "pmem.crash_views_us" "us" (avg_us "crash_views" m.fences);
    put r ~n:m.states "pmem.view_hash_us" "us" (avg_us "view_hash" m.states);
    put r ~n:m.mounted "pmem.apply_view_us" "us" (avg_us "apply_view" m.mounted);
    put r ~n:m.mounted "mount.view_mount_us" "us" (avg_us "view_mount" m.mounted);
    put r ~n:m.mounted "fsck.check_us" "us" (avg_us "fsck" m.mounted);
    put r ~n:nseq "exec.oracle_self_ms" "ms" (avg_us "oracle" nseq /. 1e3);
    let _, shards = run_batch r (cfg ~seed 0) (Stats.Samples.create ()) in
    let iters = List.map (fun s -> float_of_int s.Fuzzer.Parallel.ss_iters) shards in
    put r "parallel.shard_imbalance" "ratio"
      (List.fold_left max 0. iters /. Stats.mean (Array.of_list iters));
    put r "gc.minor_collections_per_kop" "count"
      (float_of_int !gcs *. 1e3 /. float_of_int (max 1 nseq));
    put r "trace.overhead_ratio" "ratio"
      ((float_of_int !mirror_ns /. float_of_int (max 1 !exec_ns)) -. 1.);
    Output.spans ~workload:name ~seed [ sp ]
  end;
  r
