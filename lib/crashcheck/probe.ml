module Device = Pmem.Device
module Sq = Squirrelfs
module Logical = Vfs.Logical

type memo = {
  m_states : (int64, (Logical.t, string) result) Hashtbl.t;
  m_media : (int64, string option) Hashtbl.t;
}

let memo_create () =
  { m_states = Hashtbl.create 1024; m_media = Hashtbl.create 256 }

let memo_clear m =
  Hashtbl.reset m.m_states;
  Hashtbl.reset m.m_media

type t = {
  dev : Device.t;
  memo : memo;
  csum : bool;
  compare_data : bool;
  max_images : int;
  media_images : int option;  (* [None]: the plan injects no torn/stuck lines *)
  seen : (int64, unit) Hashtbl.t;
  seen_media : (int64, unit) Hashtbl.t;
  mutable scratch : Device.scratch option;
  mutable fences : int;
  mutable states : int;
  mutable media_states : int;
  mutable deduped : int;
  mutable state_sig : int64;
}

(* FNV-1a-style fold of the per-image content hashes, in probe order. *)
let sig_empty = 0xcbf29ce484222325L
let sig_add acc h = Int64.mul (Int64.logxor acc h) 0x100000001b3L

let create ?memo ?(faults = Faults.none) ?(compare_data = false)
    ?(media_images = 4) ~max_images dev =
  let csum = not (Faults.is_none faults) in
  let media =
    csum
    && (faults.Faults.Plan.torn_line_rate > 0.
       || faults.Faults.Plan.stuck_line_rate > 0.)
  in
  {
    dev;
    memo = (match memo with Some m -> m | None -> memo_create ());
    csum;
    compare_data;
    max_images;
    media_images = (if media then Some media_images else None);
    seen = Hashtbl.create 256;
    seen_media = Hashtbl.create 64;
    scratch = None;
    fences = 0;
    states = 0;
    media_states = 0;
    deduped = 0;
    state_sig = sig_empty;
  }

let fences t = t.fences
let states t = t.states
let media_states t = t.media_states
let deduped t = t.deduped
let state_sig t = t.state_sig

(* Patch the view into the device's scratch and borrow it as a device.
   The scratch is taken on first use: a pooled device's attached one is
   reused across runs, otherwise one is created (the one O(device)
   copy of the run). *)
let mount_view t v =
  let s =
    match t.scratch with
    | Some s -> s
    | None ->
        let s =
          match Device.attached_scratch t.dev with
          | Some s -> s
          | None -> Device.scratch t.dev
        in
        t.scratch <- Some s;
        s
  in
  Device.apply_view s v;
  Device.of_view s

(* Content-determined verdict of a crash state: its first failing check,
   or the recovered tree. The comparison against the legal states stays
   outside (it depends on the ops bracketing the fence, not on the
   image), so this is sound to memoize by content hash. *)
let state_verdict t v =
  let d = mount_view t v in
  match Layout.Records.Superblock.read d with
  | None -> Error "crash image has no superblock"
  | Some sb -> (
      match Sq.Fsck.check_raw d sb.Layout.Records.Superblock.geometry with
      | _ :: _ as errs -> Error ("raw invariants: " ^ String.concat " | " errs)
      | [] -> (
          match Sq.mount d with
          | Error e ->
              Error ("crash image fails to mount: " ^ Vfs.Errno.to_string e)
          | Ok fs ->
              (* On a csum volume, a pure crash image must never trip the
                 media pre-pass: SSU seals every record before its commit,
                 so a quarantine here means a code path published an
                 unsealed record. *)
              if t.csum && (Sq.Mount.last_stats ()).Sq.Mount.degraded then
                Error
                  "media quarantine on a pure crash image (committed record \
                   without a valid checksum)"
              else (
                match Sq.Fsck.check fs with
                | _ :: _ as errs -> Error ("fsck: " ^ String.concat " | " errs)
                | [] -> (
                    match Logical.capture (module Squirrelfs) fs with
                    | exception Failure msg -> Error ("capture: " ^ msg)
                    | got -> Ok got))))

(* A torn/stuck image is not a legal SSU state, so no logical comparison
   applies: mount may succeed (possibly degraded) or refuse cleanly, but
   neither it nor fsck on the result may raise. *)
let media_verdict t v =
  match Sq.mount (mount_view t v) with
  | exception e -> Some ("media crash image: mount raised " ^ Printexc.to_string e)
  | Error _ -> None
  | Ok fs -> (
      match Sq.Fsck.check fs with
      | _ -> None
      | exception e -> Some ("media crash image: fsck raised " ^ Printexc.to_string e))

(* Hash the view, fold it into the signature, count it if this run saw
   the content before, and look its verdict up (or compute and store it). *)
let verdict t ~seen ~memo ~check v =
  let h = Device.view_hash t.dev v in
  t.state_sig <- sig_add t.state_sig h;
  if Hashtbl.mem seen h then t.deduped <- t.deduped + 1
  else Hashtbl.replace seen h ();
  match Hashtbl.find_opt memo h with
  | Some r -> r
  | None ->
      let r = check t v in
      Hashtbl.replace memo h r;
      r

let fence t ~legal ~on_violation =
  t.fences <- t.fences + 1;
  List.iteri
    (fun image v ->
      t.states <- t.states + 1;
      match verdict t ~seen:t.seen ~memo:t.memo.m_states ~check:state_verdict v with
      | Error detail -> on_violation ~image detail
      | Ok got ->
          if
            not
              (List.exists
                 (fun st -> Logical.equal ~compare_data:t.compare_data got st)
                 legal)
          then
            on_violation ~image
              (Format.asprintf "recovered state matches no legal state; got %a"
                 Logical.pp got))
    (Device.crash_views ~max_images:t.max_images t.dev);
  match t.media_images with
  | None -> ()
  | Some max_images ->
      List.iteri
        (fun image v ->
          t.media_states <- t.media_states + 1;
          match
            verdict t ~seen:t.seen_media ~memo:t.memo.m_media ~check:media_verdict v
          with
          | Some detail -> on_violation ~image detail
          | None -> ())
        (Device.crash_views_faulty ~max_images t.dev)
