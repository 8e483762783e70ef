(* An open-file-table entry: the volatile half of the SplitFS-style
   split data path. [oh_extents] is a dense snapshot of the inode's
   offset->page map, validated against the index's per-ino version
   counter — handle reads and writes touch the index once per
   generation instead of once per page, and skip path resolution
   entirely. [oh_reserve] holds pages taken from the volatile allocator
   ahead of time for staged appends; they are device-side untouched
   (descriptors zero), so a crash simply returns them via the allocator
   rebuild and [close]/unmount returns them explicitly. *)
type oft_entry = {
  oh_ino : int;
  oh_deaths : int; (* Index.file_deaths at open: detects destruction
                      even across inode-number reuse *)
  mutable oh_version : int;
  mutable oh_extents : int array; (* file page offset -> device page; -1 = hole *)
  mutable oh_reserve : int list;
}

(* Volatile half of a snapshot: the device-level retained view pinning
   the captured image, keyed by name in [snaps]. Pins do not survive
   remount (the on-volume table does; remounted snapshots list as
   unpinned and cannot be rolled back or cloned). *)
type snap_pin = {
  sp_slot : int;
  sp_id : int;
  sp_view : Pmem.Device.retained;
  mutable sp_quarantined : bool; (* scrub found the pin diverged *)
}

type t = {
  dev : Pmem.Device.t;
  geo : Layout.Geometry.t;
  reg : Typestate.Token.registry;
  mutable alloc : Alloc.t;
  mutable index : Index.t;
  next_range_id : int Atomic.t;
  cpus : int;
  mutable share_fences : bool;
  mutable coalesce : bool;
  csum : bool;
  quar : Faults.Quarantine.t;
  anon : (string, int) Hashtbl.t;
  oft : (string, oft_entry) Hashtbl.t;
  oft_lock : Mutex.t;
  snaps : (string, snap_pin) Hashtbl.t;
  mutable on_fence : (unit -> unit) option;
}

let make ?(csum = false) ~dev ~geo ~cpus () =
  {
    dev;
    geo;
    reg = Typestate.Token.create_registry ();
    alloc = Alloc.create ~cpus geo;
    index = Index.create ();
    next_range_id = Atomic.make 0;
    cpus;
    share_fences = true;
    coalesce = true;
    csum;
    quar = Faults.Quarantine.create ();
    anon = Hashtbl.create 8;
    oft = Hashtbl.create 8;
    oft_lock = Mutex.create ();
    snaps = Hashtbl.create 4;
    on_fence = None;
  }

let fence t =
  Pmem.Device.fence t.dev;
  Typestate.Token.bump_epoch t.reg;
  match t.on_fence with None -> () | Some f -> f ()

let now t = Pmem.Device.now_ns t.dev + 1_000_000_000

(* {1 Open-file table} *)

let oft_locked t f =
  Mutex.lock t.oft_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.oft_lock) f

(* Rebuild the dense extent snapshot from the index. O(pages) — paid
   once per extent-map generation, not once per read page. *)
let snapshot_extents t ino =
  let pages = Index.file_pages t.index ~ino in
  let max_off = List.fold_left (fun m (off, _) -> max m off) (-1) pages in
  let a = Array.make (max_off + 1) (-1) in
  List.iter (fun (off, page) -> a.(off) <- page) pages;
  a

let oft_open t tag ino =
  oft_locked t @@ fun () ->
  if Hashtbl.mem t.oft tag then Error Vfs.Errno.EEXIST
  else begin
    Hashtbl.replace t.oft tag
      {
        oh_ino = ino;
        oh_deaths = Index.file_deaths t.index ino;
        oh_version = Index.file_version t.index ino;
        oh_extents = snapshot_extents t ino;
        oh_reserve = [];
      };
    Ok ()
  end

let oft_close t tag =
  oft_locked t @@ fun () ->
  match Hashtbl.find_opt t.oft tag with
  | None -> Error Vfs.Errno.EBADF
  | Some e ->
      Hashtbl.remove t.oft tag;
      (match e.oh_reserve with
      | [] -> ()
      | ps ->
          List.iter (Alloc.free_page t.alloc) ps;
          e.oh_reserve <- []);
      Ok ()

(* Handle lookup with staleness check and snapshot revalidation: the
   handle dies with its inode (EBADF on a destroyed file — see the
   [Vfs.Fs.S] contract), and a version mismatch rebuilds the snapshot
   (truncate/unlink/rename through the path API bump the version).
   A stale entry stays bound (the tag is busy until [close], like a
   POSIX fd) — only its staging reserve is returned, once. *)
let oft_entry t tag =
  oft_locked t @@ fun () ->
  match Hashtbl.find_opt t.oft tag with
  | None -> Error Vfs.Errno.EBADF
  | Some e ->
      if
        (not (Index.is_file t.index e.oh_ino))
        || Index.file_deaths t.index e.oh_ino <> e.oh_deaths
      then begin
        (match e.oh_reserve with
        | [] -> ()
        | ps ->
            List.iter (Alloc.free_page t.alloc) ps;
            e.oh_reserve <- []);
        Error Vfs.Errno.EBADF
      end
      else begin
        let v = Index.file_version t.index e.oh_ino in
        if v <> e.oh_version then begin
          e.oh_extents <- snapshot_extents t e.oh_ino;
          e.oh_version <- v
        end;
        Ok e
      end

(* After a handle write changed the extent map itself, resync the
   version so the next access does not pointlessly rebuild. *)
let oft_resync t (e : oft_entry) =
  oft_locked t @@ fun () ->
  e.oh_extents <- snapshot_extents t e.oh_ino;
  e.oh_version <- Index.file_version t.index e.oh_ino

let oft_ino t tag =
  oft_locked t @@ fun () ->
  match Hashtbl.find_opt t.oft tag with
  | None -> None
  | Some e -> Some e.oh_ino

(* Object-id namespaces for the token registry: tag in the low bits. *)
let inode_oid ino = (ino * 4) + 0

let dentry_oid (geo : Layout.Geometry.t) ~page ~slot =
  ((((page * Layout.Geometry.dentries_per_page) + slot) * 4) + 1)
  + (geo.inode_count * 4)

let range_oid t = (Atomic.fetch_and_add t.next_range_id 1 + 1) * 4 + 2
