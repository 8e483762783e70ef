module Device = Pmem.Device
module Sq = Squirrelfs
module Logical = Vfs.Logical

type violation = {
  v_op_index : int;
  v_op : Workload.op option;
  v_detail : string;
}

type report = {
  workloads : int;
  ops_run : int;
  fences_probed : int;
  crash_states : int;
  states_deduped : int;
  media_states : int;
  faults_injected : int;
  faults_detected : int;
  faults_quarantined : int;
  eio_checks : int;
  violations : violation list;
}

let empty =
  {
    workloads = 0;
    ops_run = 0;
    fences_probed = 0;
    crash_states = 0;
    states_deduped = 0;
    media_states = 0;
    faults_injected = 0;
    faults_detected = 0;
    faults_quarantined = 0;
    eio_checks = 0;
    violations = [];
  }

let merge a b =
  {
    workloads = a.workloads + b.workloads;
    ops_run = a.ops_run + b.ops_run;
    fences_probed = a.fences_probed + b.fences_probed;
    crash_states = a.crash_states + b.crash_states;
    states_deduped = a.states_deduped + b.states_deduped;
    media_states = a.media_states + b.media_states;
    faults_injected = a.faults_injected + b.faults_injected;
    faults_detected = a.faults_detected + b.faults_detected;
    faults_quarantined = a.faults_quarantined + b.faults_quarantined;
    eio_checks = a.eio_checks + b.eio_checks;
    violations = a.violations @ b.violations;
  }

(* Real-run dispatch: buggy variants go through the raw mis-ordered
   implementations; everything else through the normal FS. *)
let apply_real (ctx : Sq.Fsctx.t) (op : Workload.op) =
  let root_name p = String.sub p 1 (String.length p - 1) in
  match op with
  | Workload.Buggy_create p ->
      Buggy.create ctx ~dir:Layout.Geometry.root_ino ~name:(root_name p)
  | Workload.Buggy_unlink p ->
      Buggy.unlink ctx ~dir:Layout.Geometry.root_ino ~name:(root_name p)
  | Workload.Write_atomic (p, off, data) -> (
      match Sq.stat ctx p with
      | Ok st ->
          ignore
            (Result.is_ok
               (Sq.Ops.write_atomic ctx ~ino:st.Vfs.Fs.ino ~off data)
              : bool)
      | Error _ -> ())
  | Workload.Buggy_write (p, data) -> (
      match Sq.stat ctx p with
      | Ok st -> Buggy.write_append ctx ~ino:st.Vfs.Fs.ino data
      | Error e ->
          failwith
            (Printf.sprintf "Buggy_write: stat %s: %s" p
               (Vfs.Errno.to_string e)))
  | Workload.Snapshot n ->
      ignore (Result.is_ok (Snap.snapshot ctx n) : bool)
  | Workload.Rollback n -> ignore (Result.is_ok (Snap.rollback ctx n) : bool)
  | Workload.Buggy_snap n -> Buggy.snap_create ctx ~name:n
  | op -> Workload.apply (module Squirrelfs) ctx op

(* Enumerate every path in the live file system (depth-first), one entry
   per inode (hardlinks keep the first path seen). Used to pick Phase-B
   corruption targets among committed, referenced metadata records. *)
let live_objects fs =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let rec walk path =
    match Sq.readdir fs path with
    | Error _ -> ()
    | Ok names ->
        List.iter
          (fun name ->
            let p = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Sq.stat fs p with
            | Error _ -> ()
            | Ok st ->
                if not (Hashtbl.mem seen st.Vfs.Fs.ino) then begin
                  Hashtbl.add seen st.Vfs.Fs.ino ();
                  out := (p, st.Vfs.Fs.ino) :: !out
                end;
                if st.Vfs.Fs.kind = Vfs.Fs.Dir then walk p)
          names
  in
  walk "/";
  List.rev !out

(* Deterministically pick [k] distinct elements (partial Fisher-Yates). *)
let pick_k rng k xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

let run_workload ?(device_size = 512 * 1024) ?(max_images_per_fence = 12)
    ?(media_images_per_fence = 4) ?(compare_data = false)
    ?(faults = Faults.none) ?memo ops =
  let faulty = not (Faults.is_none faults) in
  let n = List.length ops in
  (* Oracle: logical state after each prefix of the workload. *)
  let odev = Device.create ~size:device_size () in
  Sq.mkfs odev;
  let ofs =
    match Sq.mount odev with
    | Ok fs -> fs
    | Error e -> failwith ("oracle mount: " ^ Vfs.Errno.to_string e)
  in
  let oracle = Array.make (n + 1) (Logical.capture (module Squirrelfs) ofs) in
  List.iteri
    (fun i op ->
      Workload.apply (module Squirrelfs) ofs op;
      oracle.(i + 1) <- Logical.capture (module Squirrelfs) ofs)
    ops;
  (* Real run with crash probing at every fence. Media faults only make
     sense on a volume that can detect them: fault runs format with
     checksummed metadata records. *)
  let dev = Device.create ~size:device_size () in
  Sq.Mount.mkfs ~csum:faulty dev;
  let fs =
    match Sq.mount dev with
    | Ok fs -> fs
    | Error e -> failwith ("mount: " ^ Vfs.Errno.to_string e)
  in
  if faulty then Device.set_fault_plan dev faults;
  let probe =
    Probe.create ?memo ~faults ~compare_data
      ~media_images:media_images_per_fence ~max_images:max_images_per_fence dev
  in
  let cur_op = ref 0 in
  let cur_opv = ref None in
  let detected = ref 0 in
  let quarantined = ref 0 in
  let eio_checks = ref 0 in
  let violations = ref [] in
  let violate detail =
    violations :=
      { v_op_index = !cur_op; v_op = !cur_opv; v_detail = detail }
      :: !violations
  in
  let on_violation ~image:_ detail = violate detail in
  Device.set_fence_hook dev
    (Some
       (fun _ ->
         Probe.fence probe ~on_violation
           ~legal:[ oracle.(!cur_op); oracle.(min n (!cur_op + 1)) ]));
  List.iteri
    (fun i op ->
      cur_op := i;
      cur_opv := Some op;
      apply_real fs op)
    ops;
  Device.set_fence_hook dev None;
  (* Final durable state must equal the oracle's final state exactly. *)
  cur_op := n;
  cur_opv := None;
  Probe.fence probe ~on_violation ~legal:[ oracle.(n) ];
  (* Phase B: permanent corruption. Flip one seeded bit in the sealed
     (checksummed) region of up to [bit_flips] committed inode records,
     then require the full detection pipeline: the scrubber flags every
     damaged line, a remount comes up degraded with the damaged inodes
     quarantined, reads of their paths return a clean EIO, and the rest
     of the tree stays accessible. *)
  if faulty && faults.Faults.Plan.bit_flips > 0 then begin
    let geo = fs.Sq.Fsctx.geo in
    let rng = Random.State.make [| faults.Faults.Plan.seed; 0xB17F11 |] in
    let targets = pick_k rng faults.Faults.Plan.bit_flips (live_objects fs) in
    let sealed_bytes =
      List.concat_map
        (fun (off, len) -> List.init len (fun i -> off + i))
        Layout.Records.Inode.sealed_ranges
    in
    let flips =
      List.map
        (fun (path, ino) ->
          let base = Layout.Geometry.inode_off geo ~ino in
          let byte = List.nth sealed_bytes
              (Random.State.int rng (List.length sealed_bytes))
          in
          let bit = Random.State.int rng 8 in
          let off = base + byte in
          Device.flip_bit dev ~off ~bit;
          (path, ino, off))
        targets
    in
    (* A workload can finish with an empty tree (everything unlinked);
       then there is nothing to corrupt and nothing to check. *)
    if flips <> [] then begin
    (* Scrubber: every flipped line must fail its line ECC. *)
    let bad = Device.scrub dev in
    List.iter
      (fun (path, _ino, off) ->
        let line = off - (off mod Device.line_size) in
        if not (List.mem line bad) then
          violate
            (Printf.sprintf "scrub missed flipped line 0x%x (inode of %s)"
               line path))
      flips;
    (* Degraded remount of the damaged durable image. *)
    (match Sq.mount (Device.of_image (Device.image_durable dev)) with
    | Error e ->
        violate
          ("damaged volume fails to mount degraded: " ^ Vfs.Errno.to_string e)
    | exception e ->
        violate ("damaged volume: mount raised " ^ Printexc.to_string e)
    | Ok fs3 ->
        let ms = Sq.Mount.last_stats () in
        if not ms.Sq.Mount.degraded then
          violate "remount after metadata corruption is not degraded";
        quarantined :=
          !quarantined + ms.Sq.Mount.quarantined_inodes
          + ms.Sq.Mount.quarantined_pages;
        List.iter
          (fun (path, ino, _off) ->
            if Faults.Quarantine.mem_ino fs3.Sq.Fsctx.quar ino then
              incr detected
            else
              violate
                (Printf.sprintf
                   "corrupt inode %d (%s) not quarantined on remount" ino path);
            (match Sq.stat fs3 path with
            | Error Vfs.Errno.EIO -> incr eio_checks
            | Error e ->
                violate
                  (Printf.sprintf "stat %s on quarantined inode: %s (want EIO)"
                     path (Vfs.Errno.to_string e))
            | Ok _ ->
                violate
                  (Printf.sprintf "stat %s succeeded on a quarantined inode"
                     path)
            | exception e ->
                violate
                  (Printf.sprintf "stat %s raised %s (want EIO result)" path
                     (Printexc.to_string e))))
          flips;
        (* The undamaged remainder of the tree must stay readable. *)
        (match Sq.readdir fs3 "/" with
        | Ok _ -> ()
        | Error e ->
            violate ("degraded mount cannot list /: " ^ Vfs.Errno.to_string e)))
    end
  end;
  let dstats = Device.stats dev in
  {
    workloads = 1;
    ops_run = n;
    fences_probed = Probe.fences probe;
    crash_states = Probe.states probe;
    states_deduped = Probe.deduped probe;
    media_states = Probe.media_states probe;
    faults_injected =
      dstats.Pmem.Stats.bitflips + dstats.Pmem.Stats.torn_lines
      + dstats.Pmem.Stats.stuck_lines + dstats.Pmem.Stats.read_faults;
    faults_detected = !detected;
    faults_quarantined = !quarantined;
    eio_checks = !eio_checks;
    violations = List.rev !violations;
  }

let run_suite ?device_size ?max_images_per_fence ?media_images_per_fence
    ?compare_data ?faults ?progress workloads =
  let total = List.length workloads in
  (* One verdict memo for the whole suite: every workload runs at the
     same device size, so content-determined verdicts carry over. *)
  let memo = Probe.memo_create () in
  List.fold_left
    (fun (i, acc) w ->
      (match progress with Some f -> f i total | None -> ());
      ( i + 1,
        merge acc
          (run_workload ?device_size ?max_images_per_fence
             ?media_images_per_fence ?compare_data ?faults ~memo w) ))
    (0, empty) workloads
  |> snd

let pp_report ppf r =
  Format.fprintf ppf
    "workloads=%d ops=%d fences=%d crash-states=%d deduped=%d violations=%d"
    r.workloads r.ops_run r.fences_probed r.crash_states r.states_deduped
    (List.length r.violations);
  if
    r.media_states + r.faults_injected + r.faults_detected
    + r.faults_quarantined + r.eio_checks
    > 0
  then
    Format.fprintf ppf
      "@.faults: media-states=%d injected=%d detected=%d quarantined=%d \
       eio-checks=%d"
      r.media_states r.faults_injected r.faults_detected r.faults_quarantined
      r.eio_checks;
  List.iteri
    (fun i v ->
      if i < 10 then
        Format.fprintf ppf "@.  [op %d%s] %s" v.v_op_index
          (match v.v_op with
          | Some op -> Format.asprintf " %a" Workload.pp_op op
          | None -> "")
          v.v_detail)
    r.violations
