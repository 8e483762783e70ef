(* Interleaved 2-op crash-consistency checking: the concurrent
   counterpart of [Exec].

   The sequential fuzzer checks one op at a time; the server runs ops
   from different clients concurrently under the sharded per-inode lock
   table. This module checks exactly the schedules that lock table
   permits:

   - ops whose lock keys {e overlap} serialize — the only
     lock-respecting interleavings are the two serial orders, each run
     through the full differential executor ([Exec.run]);
   - ops on {e disjoint} paths can interleave at every persist point —
     each op runs as an effect-handler coroutine that yields at each
     [Fsctx.fence], and a DFS over the choice points deterministically
     enumerates every fence-granularity interleaving.

   Under every enumerated schedule, the device fence hook runs the same
   [Crashcheck.Probe] as [Exec]: each recovered state must be one of
   the four legal logical states {setup, A-only, B-only, A∧B} (both ops
   are crash-atomic, so a crash image may durably contain any subset of
   the two — but never half of one), and the final durable state must
   be A∧B (the ops commute; their serial captures are asserted equal
   before exploration). The run's store/flush/fence trace is then
   re-checked with the [Obs.Ssu] ordering checker, so both oracles
   cover every interleaving.

   Fence-granularity is lock-granularity here: within one domain an op's
   stores between two persist points are not observable by the crash
   oracle anyway (a crash view can only publish lines the op already
   flushed), so yielding at fences loses no distinguishable schedules.

   Everything is deterministic: pair generation reseeds per
   [(0x5EED, seed, pair index)], DFS order is fixed, and coroutines run
   on a single domain. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module W = Crashcheck.Workload
module Probe = Crashcheck.Probe
module Logical = Vfs.Logical
module Errno = Vfs.Errno

(* {2 Lock-footprint classification}

   Mirrors [Serve.Engine]'s lock keys (final parent + target): two ops
   contend iff they name a common path, or a structural op's target is
   an ancestor of something the other touches. *)

let parent p =
  match String.rindex_opt p '/' with
  | Some 0 | None -> "/"
  | Some i -> String.sub p 0 i

(* Paths the op names directly (its lock targets). *)
let targets (op : W.op) =
  match op with
  | W.Create p | W.Mkdir p | W.Unlink p | W.Rmdir p | W.Truncate (p, _)
  | W.Write (p, _, _) | W.Write_atomic (p, _, _) | W.Buggy_create p
  | W.Buggy_unlink p | W.Buggy_write (p, _) | W.Symlink (_, p) ->
      [ p ]
  | W.Rename (a, b) | W.Link (a, b) -> [ a; b ]
  | W.Fsync p | W.Fdatasync p -> [ p ]
  (* The fd-registry tag is modelled as a pseudo-path: two ops sharing a
     tag (tmpfile then linkat) must stay ordered. Its "parent" resolves
     to "/", which conservatively serializes tag ops against root-level
     namespace ops. *)
  | W.Tmpfile tag -> [ "tag:" ^ tag ]
  | W.Linkat (tag, p) -> [ "tag:" ^ tag; p ]
  (* Open-handle ops: the open names its path (it resolves it) and all
     four name the tag pseudo-path, so an open/write-h/close chain on
     one tag stays ordered, and the open serializes against namespace
     ops on the same file. Handle reads/writes after the open contend
     only via the tag — exactly the split-data-path contract (path ops
     invalidate via version counters, not locks). *)
  | W.Open (tag, p) -> [ "tag:" ^ tag; p ]
  | W.Close tag | W.Write_h (tag, _, _) | W.Read_h (tag, _, _) ->
      [ "tag:" ^ tag ]
  (* Whole-volume ops: no per-path footprint; [is_global] below makes
     them contend with everything, as [Serve.Engine]'s global lock
     does. *)
  | W.Snapshot _ | W.Rollback _ | W.Buggy_snap _ -> []

(* Snapshot creation/rollback quiesce the whole volume under the global
   lock ([Locks.with_all]): the only lock-respecting schedules against
   {e any} other op are the two serial orders. *)
let is_global = function
  | W.Snapshot _ | W.Rollback _ | W.Buggy_snap _ -> true
  | _ -> false

let touched op = targets op @ List.map parent (targets op)

let strict_ancestor a b =
  a <> "/" && String.length b > String.length a
  && String.sub b 0 (String.length a) = a
  && b.[String.length a] = '/'

let overlap a b =
  is_global a || is_global b
  ||
  let ta = touched a and tb = touched b in
  List.exists (fun p -> List.mem p tb) ta
  || List.exists (fun x -> List.exists (strict_ancestor x) tb) (targets a)
  || List.exists (fun x -> List.exists (strict_ancestor x) ta) (targets b)

(* {2 Device pool}

   Same template-blit idea as [Exec.Pool], but the template is the
   durable image {e after} the setup prefix and a clean unmount, so each
   enumerated schedule replays only the two ops. The probe's verdict memo
   is carried across schedules and pairs (verdicts are content-determined,
   keyed by full-content view hash). *)

type pool = {
  p_dev : Device.t;
  p_tmpl : Bytes.t;
  p_hash : int64 array * int64;
  p_memo : Probe.memo;
}

let device_size = 256 * 1024

let make_pool () =
  let dev = Device.create ~size:device_size () in
  Sq.Mount.mkfs dev;
  let ctx =
    match Sq.mount dev with
    | Ok ctx -> ctx
    | Error e -> failwith ("interleave: mount: " ^ Errno.to_string e)
  in
  List.iter
    (fun op ->
      match Exec.apply_sq ctx op with
      | Ok () -> ()
      | Error e ->
          failwith ("interleave: setup op failed: " ^ Errno.to_string e))
    Gen.setup;
  Sq.unmount ctx;
  let tmpl = Device.image_durable dev in
  {
    p_dev = dev;
    p_tmpl = tmpl;
    p_hash = Device.image_hash_state tmpl;
    p_memo = Probe.memo_create ();
  }

(* {2 The coroutine scheduler} *)

type _ Effect.t += Yield : unit Effect.t

type fiber =
  | Unstarted of (unit -> (unit, Errno.t) result)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Done of (unit, Errno.t) result

exception Stop of string

type sched_out = {
  so_schedule : int list;  (** fiber id chosen at each step *)
  so_branches : int list list;  (** unexplored sibling prefixes *)
  so_fail : string option;  (** first oracle violation, if any *)
  so_states : int;  (** crash states probed *)
  so_deduped : int;
  so_ssu : string option;  (** first SSU trace violation, if any *)
  so_results : (unit, Errno.t) result array;  (** per-fiber op results *)
}

(* Run one schedule: follow [prefix]'s choices, then always pick the
   lowest-id runnable fiber, recording each abandoned alternative as a
   sibling prefix for the DFS driver. The crash oracle runs inside via
   the device fence hook; the SSU checker runs afterward on the
   recorded trace. *)
let run_schedule pool ~legal ~final ~(ops : W.op array) ~prefix =
  let dev = pool.p_dev in
  Device.reset ~hash:pool.p_hash dev ~image:pool.p_tmpl;
  let ctx =
    match Sq.mount dev with
    | Ok ctx -> ctx
    | Error e ->
        failwith ("interleave: schedule mount: " ^ Errno.to_string e)
  in
  let recorder = Obs.Recorder.create () in
  Sq.Tracing.attach ctx recorder;
  let fail = ref None in
  let probe = Probe.create ~memo:pool.p_memo ~max_images:8 dev in
  let fence () =
    Probe.fence probe ~legal:!legal ~on_violation:(fun ~image:_ detail ->
        raise (Stop detail))
  in
  let nf = Array.length ops in
  let fibers =
    Array.init nf (fun i -> Unstarted (fun () -> Exec.apply_sq ctx ops.(i)))
  in
  let runnable i = match fibers.(i) with Done _ -> false | _ -> true in
  let step i =
    match fibers.(i) with
    | Done _ -> assert false
    | Suspended k -> Effect.Deep.continue k ()
    | Unstarted f ->
        Effect.Deep.match_with
          (fun () -> fibers.(i) <- Done (f ()))
          ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Yield ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        fibers.(i) <- Suspended k)
                | _ -> None);
          }
  in
  let schedule = ref [] and branches = ref [] in
  let rec drive prefix =
    match List.filter runnable [ 0; 1 ] with
    | [] -> ()
    | runnables ->
        let choice, rest =
          match prefix with
          | c :: rest ->
              if not (runnable c) then
                failwith "interleave: DFS prefix chose a finished fiber"
              else (c, rest)
          | [] ->
              (* past the prefix: default choice, siblings become new
                 DFS prefixes *)
              let c = List.hd runnables in
              List.iter
                (fun alt ->
                  branches :=
                    List.rev (alt :: !schedule) :: !branches)
                (List.filter (fun x -> x <> c) runnables);
              (c, [])
        in
        schedule := choice :: !schedule;
        step choice;
        drive rest
  in
  (* Yield at every persist point of the fiber ops; the hook is not
     installed during setup (the template predates it). [running]
     guards the final probe fence below. *)
  let running = ref true in
  ctx.Sq.Fsctx.on_fence <-
    Some (fun () -> if !running then Effect.perform Yield);
  Device.set_fence_hook dev (Some (fun _ -> fence ()));
  (try drive prefix with
  | Stop detail ->
      fail := Some detail;
      running := false;
      (* unwind suspended fibers so their cleanup handlers run *)
      Array.iter
        (function
          | Suspended k -> (
              try Effect.Deep.discontinue k (Stop detail) with Stop _ -> ())
          | _ -> ())
        fibers;
      Array.iteri
        (fun i f ->
          match f with
          | Done _ -> ()
          | _ -> fibers.(i) <- Done (Error Errno.EIO))
        fibers);
  running := false;
  ctx.Sq.Fsctx.on_fence <- None;
  (* final durable state must be the both-ops state exactly (as in
     [Exec], the probe runs on the quiescent device directly — both ops
     finished with their own fences, so nothing is pending) *)
  (if !fail = None then
     try
       legal := [ final ];
       fence ();
       match Sq.Fsck.check ctx with
       | [] -> ()
       | errs ->
           fail := Some ("live fsck after schedule: " ^ String.concat " | " errs)
     with Stop detail -> fail := Some detail);
  Device.set_fence_hook dev None;
  Sq.Tracing.detach ctx;
  let ssu =
    match Obs.Ssu.check (Obs.Recorder.to_list recorder) with
    | Ok () -> None
    | Error v -> Some (Format.asprintf "%a" Obs.Ssu.pp_violation v)
  in
  {
    so_schedule = List.rev !schedule;
    so_branches = !branches;
    so_fail = !fail;
    so_states = Probe.states probe;
    so_deduped = Probe.deduped probe;
    so_ssu = ssu;
    so_results = Array.map (function Done r -> r | _ -> Error Errno.EIO) fibers;
  }

(* {2 Pair exploration} *)

type pair_kind = Disjoint | Overlapping

type pair_result = {
  pr_index : int;
  pr_a : W.op;
  pr_b : W.op;
  pr_kind : pair_kind;
  pr_schedules : int;  (** interleavings explored (serial orders included) *)
  pr_skipped : int;  (** schedules beyond the cap, if any *)
  pr_states : int;
  pr_deduped : int;
  pr_oracle_fail : string option;
  pr_ssu_fail : string option;
}

let model_after ops =
  List.fold_left
    (fun (m, ok) op ->
      let m', r = Ref_fs.apply m op in
      match r with Ok () -> (m', ok) | Error _ -> (m, false))
    (Ref_fs.empty, true) ops

(* Explore every lock-respecting interleaving of a disjoint pair via
   DFS over schedule prefixes. *)
let explore_disjoint pool ~max_interleavings ~(a : W.op) ~(b : W.op) ~caps =
  let cap0, cap_a, cap_b, cap_ab = caps in
  let legal = ref [ cap0; cap_a; cap_b; cap_ab ] in
  let ops = [| a; b |] in
  let stack = ref [ [] ] in
  let n = ref 0 and skipped = ref 0 in
  let states = ref 0 and deduped = ref 0 in
  let oracle_fail = ref None and ssu_fail = ref None in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !n >= max_interleavings then incr skipped
        else begin
          incr n;
          legal := [ cap0; cap_a; cap_b; cap_ab ];
          let out = run_schedule pool ~legal ~final:cap_ab ~ops ~prefix in
          states := !states + out.so_states;
          deduped := !deduped + out.so_deduped;
          if !oracle_fail = None then oracle_fail := out.so_fail;
          if !ssu_fail = None then ssu_fail := out.so_ssu;
          (* depth-first: push new branches ahead of pending ones *)
          stack := out.so_branches @ !stack;
          (* differential return values: the model accepted both ops *)
          if !oracle_fail = None then
            Array.iteri
              (fun i r ->
                match r with
                | Ok () -> ()
                | Error (Errno.ENOSPC | Errno.EMLINK) ->
                    (* benign capacity divergence, as in [Exec] *)
                    ()
                | Error e ->
                    oracle_fail :=
                      Some
                        (Printf.sprintf
                           "differential: op %d (%s) failed %s where the \
                            model succeeded"
                           i
                           (Format.asprintf "%a" W.pp_op ops.(i))
                           (Errno.to_string e)))
              out.so_results
        end
  done;
  (!n, !skipped, !states, !deduped, !oracle_fail, !ssu_fail)

(* Overlapping pair: the lock table serializes it, so its two serial
   orders are the only lock-respecting schedules — run both through the
   full sequential differential executor, traced.  Pairs are tiny, so
   raise the per-fence image budget enough to enumerate fences
   exhaustively: the snap mutant's torn window is one specific
   line-prefix combination (commit word's line fully drained, the
   CRC-sealed name tail still in flight) that sampled probing can
   deterministically miss. *)
let serial_legs epool ~(a : W.op) ~(b : W.op) =
  let one ops =
    let r = Obs.Recorder.create () in
    let out = Exec.run ~pool:epool ~max_images_per_fence:64 ~trace:r ops in
    let oracle =
      Option.map (fun (_, detail) -> detail) out.Exec.o_fail
    in
    let ssu =
      match Obs.Ssu.check (Obs.Recorder.to_list r) with
      | Ok () -> None
      | Error v -> Some (Format.asprintf "%a" Obs.Ssu.pp_violation v)
    in
    (oracle, ssu, out.Exec.o_report.Crashcheck.Harness.crash_states)
  in
  let o1, s1, n1 = one (Gen.setup @ [ a; b ]) in
  let o2, s2, n2 = one (Gen.setup @ [ b; a ]) in
  let first x y = if x = None then y else x in
  (2, 0, n1 + n2, 0, first o1 o2, first s1 s2)

type report = {
  i_pairs : int;
  i_disjoint : int;
  i_overlapping : int;
  i_schedules : int;
  i_skipped : int;
  i_states : int;
  i_deduped : int;
  i_failures : pair_result list;  (** pairs where either oracle fired *)
}

let pair_failed pr = pr.pr_oracle_fail <> None || pr.pr_ssu_fail <> None

(* Generate the [i]-th op pair on top of the setup model. Both ops are
   drawn against the same post-setup model: they are what two clients
   would submit concurrently from the same observed state. *)
let gen_pair ~seed i =
  let rng = Random.State.make [| 0x5EED; seed; i |] in
  let m0, _ = model_after Gen.setup in
  (Gen.gen_correct rng m0, Gen.gen_correct rng m0)

let check_pair ~pools:(pool, epool) ~max_interleavings ~index (a, b) =
  let m0, _ = model_after Gen.setup in
  let cap0 = Ref_fs.capture m0 in
  let ma, ra = Ref_fs.apply m0 a in
  let mb, rb = Ref_fs.apply m0 b in
  let mab, rab = Ref_fs.apply ma b in
  let mba, rba = Ref_fs.apply mb a in
  let commute =
    ra = Ok () && rb = Ok () && rab = Ok () && rba = Ok ()
    && Logical.equal ~compare_data:true (Ref_fs.capture mab)
         (Ref_fs.capture mba)
  in
  let kind =
    if (not (overlap a b)) && commute then Disjoint else Overlapping
  in
  let schedules, skipped, states, deduped, oracle_fail, ssu_fail =
    match kind with
    | Disjoint ->
        explore_disjoint pool ~max_interleavings ~a ~b
          ~caps:(cap0, Ref_fs.capture ma, Ref_fs.capture mb, Ref_fs.capture mab)
    | Overlapping -> serial_legs epool ~a ~b
  in
  {
    pr_index = index;
    pr_a = a;
    pr_b = b;
    pr_kind = kind;
    pr_schedules = schedules;
    pr_skipped = skipped;
    pr_states = states;
    pr_deduped = deduped;
    pr_oracle_fail = oracle_fail;
    pr_ssu_fail = ssu_fail;
  }

let run ?(seed = 1) ?(pairs = 50) ?(max_interleavings = 64) () =
  let pool = make_pool () and epool = Exec.Pool.create () in
  let results =
    List.init pairs (fun i ->
        check_pair ~pools:(pool, epool) ~max_interleavings ~index:i
          (gen_pair ~seed i))
  in
  {
    i_pairs = pairs;
    i_disjoint =
      List.length (List.filter (fun r -> r.pr_kind = Disjoint) results);
    i_overlapping =
      List.length (List.filter (fun r -> r.pr_kind = Overlapping) results);
    i_schedules = List.fold_left (fun a r -> a + r.pr_schedules) 0 results;
    i_skipped = List.fold_left (fun a r -> a + r.pr_skipped) 0 results;
    i_states = List.fold_left (fun a r -> a + r.pr_states) 0 results;
    i_deduped = List.fold_left (fun a r -> a + r.pr_deduped) 0 results;
    i_failures = List.filter pair_failed results;
  }

(* {2 Expect-buggy leg}

   Each [Buggy_*] mutant paired with a correct op on a disjoint path.
   The mutants skip [Fsctx.fence] (they mis-order raw device stores), so
   a mutant never yields: the schedules interleave the partner's persist
   points around it. Every mutant must be flagged by the crash oracle
   AND by the SSU trace checker in at least one schedule. *)

let buggy_pairs =
  [
    ("create", W.Buggy_create "/x", W.Write ("/d/f", 0, String.make 100 'q'));
    ("unlink", W.Buggy_unlink "/a", W.Create "/e/n");
    ("write", W.Buggy_write ("/a", String.make 80 'z'), W.Create "/d/n");
    (* the name must run past the slot's first 64-byte line (> 24 chars)
       so the torn window spans lines: a crash view can then drain the
       commit word's line while CRC-sealed name bytes are still in
       flight, which is what the oracle catches *)
    ("snap", W.Buggy_snap "torn-snapshot-commit-ordering", W.Write ("/a", 0, String.make 90 'w'));
  ]

type buggy_result = {
  b_name : string;
  b_oracle : bool;  (** crash oracle flagged it *)
  b_ssu : bool;  (** SSU trace checker flagged it *)
}

let run_buggy ?(max_interleavings = 64) () =
  let pools = (make_pool (), Exec.Pool.create ()) in
  List.mapi
    (fun i (name, buggy, partner) ->
      let pr = check_pair ~pools ~max_interleavings ~index:i (buggy, partner) in
      {
        b_name = name;
        b_oracle = pr.pr_oracle_fail <> None;
        b_ssu = pr.pr_ssu_fail <> None;
      })
    buggy_pairs
