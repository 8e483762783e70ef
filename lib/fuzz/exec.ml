(* Differential crash-state executor.

   One sequence, two file systems: SquirrelFS on a simulated PM device and
   the in-memory reference model, op by op. Before each op the pair of
   legal logical states is fixed (model before / model after); a fence
   hook runs [Crashcheck.Probe] at every persist point, which remounts
   each crash image (running recovery), re-checks it with [Fsck], and
   requires the recovered tree to be one of the two — SquirrelFS metadata ops are
   synchronous and crash-atomic, so anything else is an SSU ordering bug.
   Op return values are compared too (same errno, same success), and the
   final durable state must equal the final model state exactly.

   The model has no capacity limits, so a SquirrelFS [ENOSPC]/[EMLINK]
   against a model success is benign: the model is rolled back and the
   event counted as a divergence, not a violation. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module W = Crashcheck.Workload
module H = Crashcheck.Harness
module Probe = Crashcheck.Probe
module Logical = Vfs.Logical
module Errno = Vfs.Errno

type crash_point = { cp_op : int; cp_fence : int; cp_image : int }

type outcome = {
  o_report : H.report;
  o_fail : (crash_point * string) option;
  o_divergences : int;
  o_sim_ns : int;
  o_state_sig : int64;
}

exception Abort

let root_level p =
  match Vfs.Path.split p with Ok [ name ] -> Some name | Ok _ | Error _ -> None

let unit_r = function Ok _ -> Ok () | Error e -> Error e

(* Apply one op to the live SquirrelFS. The Buggy_* variants run the raw
   mis-ordered store sequences from [Crashcheck.Buggy], guarded so their
   preconditions failing surfaces as the same clean errno the reference
   model computes (the raw variants [failwith] otherwise); capacity
   exhaustion inside a raw variant surfaces as [ENOSPC]. The guards only
   understand root-level paths — all the generator emits. *)
let apply_sq (ctx : Sq.Fsctx.t) (op : W.op) : (unit, Errno.t) result =
  match op with
  | W.Create p -> Sq.create ctx p
  | W.Mkdir p -> Sq.mkdir ctx p
  | W.Unlink p -> Sq.unlink ctx p
  | W.Rmdir p -> Sq.rmdir ctx p
  | W.Rename (a, b) -> Sq.rename ctx a b
  | W.Link (a, b) -> Sq.link ctx a b
  | W.Symlink (target, p) -> Sq.symlink ctx target p
  | W.Write (p, off, d) -> unit_r (Sq.write ctx p ~off d)
  | W.Truncate (p, n) -> Sq.truncate ctx p n
  | W.Fsync p -> Sq.fsync ctx p
  | W.Fdatasync p -> Sq.fdatasync ctx p
  | W.Tmpfile tag -> Sq.tmpfile ctx tag
  | W.Linkat (tag, p) -> Sq.linkat ctx tag p
  | W.Open (tag, p) -> Sq.open_file ctx tag p
  | W.Close tag -> Sq.close_file ctx tag
  | W.Write_h (tag, off, d) -> unit_r (Sq.write_h ctx tag ~off d)
  | W.Read_h (tag, off, len) -> unit_r (Sq.read_h ctx tag ~off ~len)
  | W.Write_atomic (p, off, d) -> (
      match Sq.stat ctx p with
      | Error e -> Error e
      | Ok st -> (
          match st.Vfs.Fs.kind with
          | Vfs.Fs.Dir -> Error Errno.EISDIR
          | Vfs.Fs.Symlink -> Error Errno.EINVAL
          | Vfs.Fs.File -> unit_r (Sq.Ops.write_atomic ctx ~ino:st.Vfs.Fs.ino ~off d)))
  | W.Buggy_create p -> (
      match root_level p with
      | None -> Error Errno.EINVAL
      | Some name -> (
          match Sq.stat ctx p with
          | Ok _ -> Error Errno.EEXIST
          | Error Errno.ENOENT -> (
              match Crashcheck.Buggy.create ctx ~dir:Layout.Geometry.root_ino ~name with
              | () -> Ok ()
              | exception Failure _ -> Error Errno.ENOSPC)
          | Error e -> Error e))
  | W.Buggy_unlink p -> (
      match root_level p with
      | None -> Error Errno.EINVAL
      | Some name -> (
          match Sq.stat ctx p with
          | Error e -> Error e
          | Ok st when st.Vfs.Fs.kind = Vfs.Fs.Dir -> Error Errno.EISDIR
          | Ok _ -> (
              match Crashcheck.Buggy.unlink ctx ~dir:Layout.Geometry.root_ino ~name with
              | () -> Ok ()
              | exception Failure _ -> Error Errno.ENOSPC)))
  | W.Buggy_write (p, d) -> (
      match Sq.stat ctx p with
      | Error e -> Error e
      | Ok st -> (
          match st.Vfs.Fs.kind with
          | Vfs.Fs.Dir -> Error Errno.EISDIR
          | Vfs.Fs.Symlink -> Error Errno.EINVAL
          | Vfs.Fs.File ->
              if String.length d = 0 || String.length d > Layout.Geometry.page_size then
                Error Errno.EINVAL
              else (
                match Crashcheck.Buggy.write_append ctx ~ino:st.Vfs.Fs.ino d with
                | () -> Ok ()
                | exception Failure _ -> Error Errno.ENOSPC)))
  | W.Snapshot n -> unit_r (Snap.snapshot ctx n)
  | W.Rollback n -> Snap.rollback ctx n
  | W.Buggy_snap n ->
      (* same precondition ladder as [Snap.snapshot] so the clean-errno
         cases stay in lockstep with the model; only the happy path runs
         the mis-ordered store sequence *)
      if not (Layout.Snaptab.valid_name n) then Error Errno.EINVAL
      else if Layout.Snaptab.find ctx.Sq.Fsctx.dev n <> None then
        Error Errno.EEXIST
      else (
        match Crashcheck.Buggy.snap_create ctx ~name:n with
        | () -> Ok ()
        | exception Failure _ -> Error Errno.ENOSPC)

(* {2 Per-domain resource pool}

   Fresh-device fuzzing pays a large constant per iteration: allocate two
   device-sized buffers, simulate mkfs store by store, then copy the
   device again into a new scratch. A pool amortizes all of it across
   the iterations of one fuzzing loop or shard: the first
   acquisition formats a device once and snapshots the post-mkfs durable
   image as a template; every later acquisition blits the template back
   over the same buffers ({!Device.reset}), reusing the attached scratch
   too. The pool also carries the probe's verdict memo across
   iterations: verdicts are content-determined (keyed by full-content
   view hash), so a state revisited in a later iteration skips the
   remount + fsck entirely. The [states_deduped] counter stays run-local
   (see {!Probe.deduped}), so reports are independent of pooling.

   A pool is single-domain state: share one per domain, never across. *)
module Pool = struct
  type entry = {
    e_dev : Device.t;
    e_tmpl : Bytes.t;  (* post-mkfs durable image *)
    mutable e_hash : (int64 array * int64) option;  (* lazy template hash *)
  }

  type key = {
    k_size : int;
    k_csum : bool;
    k_latency : Pmem.Latency.t option;
    k_sparse : bool option; (* None = Device.create's size-based default *)
  }

  type t = { mutable slot : (key * entry) option; memo : Probe.memo }

  let create () = { slot = None; memo = Probe.memo_create () }

  (* A ready-to-mount formatted device: template-blit on reuse, real mkfs
     only on first acquisition (or when the configuration changes, which
     also invalidates the content-hash-keyed memos). *)
  let acquire p ~size ~csum ~latency ~sparse =
    let key =
      { k_size = size; k_csum = csum; k_latency = latency; k_sparse = sparse }
    in
    match p.slot with
    | Some (k, e) when k = key ->
        let hash =
          match e.e_hash with
          | Some h -> h
          | None ->
              let h = Device.image_hash_state e.e_tmpl in
              e.e_hash <- Some h;
              h
        in
        Device.reset ~hash e.e_dev ~image:e.e_tmpl;
        e.e_dev
    | Some _ | None ->
        if p.slot <> None then Probe.memo_clear p.memo;
        let dev = Device.create ?latency ?sparse ~size () in
        Sq.Mount.mkfs ~csum dev;
        p.slot <-
          Some (key, { e_dev = dev; e_tmpl = Device.image_durable dev; e_hash = None });
        dev
end

let run ?(device_size = 256 * 1024) ?sparse ?(max_images_per_fence = 8)
    ?(media_images_per_fence = 4) ?(faults = Faults.none) ?latency ?pool ?trace
    ?metrics ops =
  let faulty = not (Faults.is_none faults) in
  let n = List.length ops in
  let opsa = Array.of_list ops in
  let dev =
    match pool with
    | Some p -> Pool.acquire p ~size:device_size ~csum:faulty ~latency ~sparse
    | None ->
        let dev = Device.create ?latency ?sparse ~size:device_size () in
        Sq.Mount.mkfs ~csum:faulty dev;
        dev
  in
  (* Simulated time is charged from the post-mkfs baseline (0 on a pooled
     reset), so [o_sim_ns] covers the workload only and is identical
     whether or not the device came from a pool. *)
  let sim_base = Device.now_ns dev in
  let fs =
    match Sq.mount dev with
    | Ok fs -> fs
    | Error e -> failwith ("Fuzzer.Exec.run: mount: " ^ Errno.to_string e)
  in
  (* Observability attaches after mount, so the trace opens with the
     post-mkfs durable snapshot the SSU checker needs; borrowed crash-view
     devices never inherit the tracer, so fsck probing stays untraced.
     Neither hook charges time or reads RNGs: the outcome (report, sim-ns,
     divergences) is bit-identical to an unobserved run. *)
  (match trace with Some r -> Sq.Tracing.attach fs r | None -> ());
  (match metrics with
  | Some m ->
      Device.set_metrics dev (Some m);
      Typestate.Token.set_metrics fs.Sq.Fsctx.reg (Some m)
  | None -> ());
  if faulty then Device.set_fault_plan dev faults;
  (* The verdict memo is pool-carried when pooled (states revisited
     across iterations skip the recheck), run-local otherwise. *)
  let probe =
    Probe.create
      ?memo:(Option.map (fun p -> p.Pool.memo) pool)
      ~faults ~media_images:media_images_per_fence
      ~max_images:max_images_per_fence dev
  in
  let cur_op = ref 0 in
  let ops_run = ref 0 and divergences = ref 0 in
  let legal = ref [ Ref_fs.capture Ref_fs.empty ] in
  let fail = ref None in
  let violations = ref [] in
  let violate ~image detail =
    let cp = { cp_op = !cur_op; cp_fence = Probe.fences probe; cp_image = image } in
    fail := Some (cp, detail);
    violations :=
      {
        H.v_op_index = !cur_op;
        v_op = (if !cur_op < n then Some opsa.(!cur_op) else None);
        v_detail = detail;
      }
      :: !violations;
    (* first violation wins: the crash point it pins down is what the
       shrinker minimizes, so stop exploring this sequence *)
    raise Abort
  in
  let fence () = Probe.fence probe ~legal:!legal ~on_violation:violate in
  (try
     Device.set_fence_hook dev (Some (fun _ -> fence ()));
     let model = ref Ref_fs.empty in
     let cap_prev = ref (Ref_fs.capture Ref_fs.empty) in
     for i = 0 to n - 1 do
       cur_op := i;
       let m_next, m_res = Ref_fs.apply !model opsa.(i) in
       let cap_next = if m_res = Ok () then Ref_fs.capture m_next else !cap_prev in
       (* fixed before apply_sq: the fence hook fires inside it *)
       legal := if m_res = Ok () then [ !cap_prev; cap_next ] else [ !cap_prev ];
       let sq_res = apply_sq fs opsa.(i) in
       incr ops_run;
       match (sq_res, m_res) with
       | Ok (), Ok () ->
           model := m_next;
           cap_prev := cap_next
       | Error a, Error b when a = b -> ()
       | Error (Errno.ENOSPC | Errno.EMLINK), Ok () ->
           (* capacity divergence: roll the model back, keep going *)
           incr divergences
       | Ok (), Error b ->
           violate ~image:(-1)
             (Printf.sprintf "differential: squirrelfs succeeded, model says %s"
                (Errno.to_string b))
       | Error a, Ok () ->
           violate ~image:(-1)
             (Printf.sprintf "differential: squirrelfs says %s, model succeeded"
                (Errno.to_string a))
       | Error a, Error b ->
           violate ~image:(-1)
             (Printf.sprintf "differential: squirrelfs says %s, model says %s"
                (Errno.to_string a) (Errno.to_string b))
     done;
     cur_op := n;
     legal := [ !cap_prev ];
     (* final durable state must equal the final model state exactly *)
     fence ();
     Device.set_fence_hook dev None;
     match Sq.Fsck.check fs with
     | [] -> ()
     | errs -> violate ~image:(-1) ("live fsck after sequence: " ^ String.concat " | " errs)
   with Abort -> Device.set_fence_hook dev None);
  if trace <> None then Device.set_tracer dev None;
  if metrics <> None then begin
    Device.set_metrics dev None;
    Typestate.Token.set_metrics fs.Sq.Fsctx.reg None
  end;
  let dstats = Device.stats dev in
  {
    o_report =
      {
        H.workloads = 1;
        ops_run = !ops_run;
        fences_probed = Probe.fences probe;
        crash_states = Probe.states probe;
        states_deduped = Probe.deduped probe;
        media_states = Probe.media_states probe;
        faults_injected =
          dstats.Pmem.Stats.bitflips + dstats.Pmem.Stats.torn_lines
          + dstats.Pmem.Stats.stuck_lines + dstats.Pmem.Stats.read_faults;
        faults_detected = 0;
        faults_quarantined = 0;
        eio_checks = 0;
        violations = List.rev !violations;
      };
    o_fail = !fail;
    o_divergences = !divergences;
    o_sim_ns = Device.now_ns dev - sim_base;
    o_state_sig = Probe.state_sig probe;
  }
