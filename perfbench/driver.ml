(* Driver of the workloads that send requests to one mounted volume
   (fileserver, webserver, serve): set-up repetitions, each running the
   exact-count prefix; the timed phase; the traced phase; the checks of
   the durable image; and the report. Every call into the file system is
   timed on its own. A workload supplies the requests and decides how
   many domains send them. *)

open Common

(* What a timed phase measured. Its wall time, and the CPU time of its
   pieces, leave out the gaps between pieces, where the volume is tidied
   and the host's speed sampled. *)
type phase = {
  lats : lat array;  (** one per domain *)
  pieces : piece list;
  wall : float;  (** s *)
  sim_ns : int;
  gcs : int;  (** minor collections *)
}

let lats_ops lats = Array.fold_left (fun n (l : lat) -> n + l.ops) 0 lats
let phase_ops ph = lats_ops ph.lats

module type WORKLOAD = sig
  type t

  val name : string

  val domains : int
  (** domains sending requests in the timed phases *)

  val setup_reps : int
  (** set-ups per run; set-up time is their median *)

  val setup : seed:int -> t
  (** fresh volume, formatted, mounted and populated from the seed *)

  val ctx : t -> Sq.Fsctx.t

  val prefix : t -> report -> lat -> unit
  (** the fixed, seed-determined requests whose simulator counts must
      repeat, sent from the calling domain *)

  val piece : t -> report -> lat array -> deadline:int -> unit
  (** requests until [deadline], domain [d] timing its calls into
      [lat.(d)]; returns with every domain it started joined *)

  val tidy : t -> report -> unit
  (** upkeep between pieces, outside the timing, that keeps the volume
      from filling however many requests a piece fits *)

  val verify : t -> report -> Sq.Fsctx.t -> unit
  (** every acknowledged write, read back from the remounted durable image *)

  val layers : t -> report -> phase -> unit
  (** the workload's own per-layer metrics (traced runs), given the
      untraced phase *)
end

let run (module W : WORKLOAD) ~seed ~seconds ~trace =
  let r = report () in
  (* A timed phase of [secs] on instance [st]. *)
  let timed st ~traced secs =
    let lats =
      Array.init W.domains (fun _ ->
          let l = lat () in
          if traced then l.spans <- Some (Spans.create ());
          l)
    in
    let dev = (W.ctx st).Sq.Fsctx.dev in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections and sim = ref 0 in
    let between () = W.tidy st r in
    let pieces =
      in_pieces ~sample:(not traced) ~between secs (fun deadline ->
          let n0 = lats_ops lats and sim0 = Device.now_ns dev in
          W.piece st r lats ~deadline;
          sim := !sim + (Device.now_ns dev - sim0);
          lats_ops lats - n0)
    in
    let ph =
      {
        lats; pieces; wall = pieces_wall pieces;
        sim_ns = !sim;
        gcs = (Gc.quick_stat ()).Gc.minor_collections - gc0;
      }
    in
    r.attempted <- r.attempted + phase_ops ph;
    ph
  in
  let setups = ref [] and keys = ref [] in
  let inst = ref None in
  let minor_words = ref 0. in
  for rep = 1 to W.setup_reps do
    inst := None;
    settle ();
    ref_sample ref_setup;
    let t0 = now () in
    let st = W.setup ~seed in
    setups := float_of_int (now () - t0) /. 1e9 :: !setups;
    let ctx = W.ctx st and pl = lat () in
    let prefix () =
      W.prefix st r pl;
      pl.ops
    in
    let w0 = Gc.minor_words () in
    let counts, evs =
      if trace && rep = W.setup_reps then
        capture ctx.Sq.Fsctx.dev (fun () -> count_prefix ctx prefix)
      else (count_prefix ctx prefix, [||])
    in
    if rep = 1 then minor_words := (Gc.minor_words () -. w0) /. float_of_int pl.ops;
    r.attempted <- r.attempted + pl.ops;
    keys := counts_key counts :: !keys;
    inst := Some (st, counts, evs)
  done;
  check_repeat r ~workload:W.name ~seed (List.rev !keys);
  let heap_mb = peak_heap_mb () in
  let st, counts, evs = Option.get !inst in
  let ctx = W.ctx st in
  let dev = ctx.Sq.Fsctx.dev in
  let ph = timed st ~traced:false (if trace then seconds /. 2. else seconds) in
  let traced = if trace then Some (timed st ~traced:true (seconds /. 2.)) else None in
  (* output checks: the durable image alone must remount clean and hold
     every acknowledged write *)
  let remount =
    match remount_check r dev with
    | None -> None
    | Some (ctx2, mount_ms, fsck_ms) ->
        W.verify st r ctx2;
        Some (mount_ms, fsck_ms)
  in
  let ops = phase_ops ph in
  let fops = float_of_int ops in
  let l = merge_lats ph.lats in
  let call_s = Array.fold_left ( +. ) 0. (Stats.Samples.to_array l.all) /. 1e6 in
  match traced with
  | None ->
      put_scaled r ~ops ~cpu_us:(cpu_us_per_op ph.pieces) ~setups:(Array.of_list !setups);
      put r ~n:ops "sim_ns_per_op" "ns" (float_of_int ph.sim_ns /. fops);
      put r "heap_mb" "MB" heap_mb;
      put r ~n:ops "ops_per_s" "1/s" (fops /. ph.wall);
      put_lat r l;
      (* what the benchmark's own work (request generation, reply
         checks, the model) costs, at most: wall time outside the timed
         calls *)
      put r "harness_share" "ratio" (1. -. (call_s /. (float_of_int W.domains *. ph.wall)));
      r
  | Some tph ->
      let replay_us =
        replay ~size:(Device.size dev) ~sparse:(Device.is_sparse dev) evs
        /. 1e3 /. float_of_int counts.c_ops
      in
      put r "pmem.replay_us_per_op" "us" replay_us;
      put r ~n:ops "core.self_us_per_op" "us" ((call_s *. 1e6 /. fops) -. replay_us);
      put r "core.minor_words_per_op" "words" !minor_words;
      put_counts r counts;
      put r "pmem.resident_mb" "MB" (float_of_int (Device.resident_bytes dev) /. 1048576.);
      let page_ns, inode_ns = alloc_probe ctx in
      put r "alloc.page_ns" "ns" page_ns;
      put r "alloc.inode_ns" "ns" inode_ns;
      (match remount with
      | Some (m, f) ->
          put r "mount.remount_ms" "ms" m;
          put r "fsck.check_ms" "ms" f
      | None -> ());
      put r "gc.minor_collections_per_kop" "count" (float_of_int ph.gcs *. 1e3 /. fops);
      put r "trace.overhead_ratio" "ratio"
        ((fops /. ph.wall /. (float_of_int (phase_ops tph) /. tph.wall)) -. 1.);
      W.layers st r ph;
      Output.spans ~workload:W.name ~seed
        (List.filter_map (fun (l : lat) -> l.spans) (Array.to_list tph.lats));
      r
