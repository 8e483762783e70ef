(** Mounted-filesystem context shared by all SquirrelFS modules: the PM
    device, geometry, the token registry backing typestate handles, the
    volatile allocators and indexes, and the open-file table backing the
    SplitFS-style split data path. *)

type oft_entry = {
  oh_ino : int;
  oh_deaths : int;
      (** {!Index.file_deaths} at open time — a changed count means the
          opened file was destroyed, even if its inode number has since
          been reused by a new file *)
  mutable oh_version : int;
      (** {!Index.file_version} at the time the snapshot was taken *)
  mutable oh_extents : int array;
      (** dense file-page-offset -> device-page snapshot; [-1] = hole *)
  mutable oh_reserve : int list;
      (** pre-allocated staging pages for appends (volatile: a crash
          returns them via the allocator rebuild) *)
}

type snap_pin = {
  sp_slot : int;  (** on-volume snapshot-table slot *)
  sp_id : int;  (** snapshot id (matches the slot record) *)
  sp_view : Pmem.Device.retained;
      (** the pinned durable image; its hash is the rollback target *)
  mutable sp_quarantined : bool;
      (** the snapshot scrubber found the pinned content diverged from
          its hash (media rot in a shared base line): rollback and clone
          refuse with [EIO] *)
}
(** Volatile half of a snapshot (see [Snap]): pins are per-process and
    do not survive remount — the on-volume table does, and remounted
    snapshots list as unpinned. *)

type t = {
  dev : Pmem.Device.t;
  geo : Layout.Geometry.t;
  reg : Typestate.Token.registry;
  mutable alloc : Alloc.t;
  mutable index : Index.t;
  next_range_id : int Atomic.t;
      (** ids for page-range handles in the token registry (atomic:
          handed out from concurrent server domains) *)
  cpus : int;  (** parallelism hint [make] was given (allocator striping) *)
  mutable share_fences : bool;
      (** when false, [after_fence] transitions issue their own [sfence]
          instead of reusing a shared one — the ablation of the paper's
          fence-sharing optimization (§3.2, §4.1) *)
  mutable coalesce : bool;
      (** when false, the write path keeps its legacy one-fence-per-group
          ordering (fill / backptr / size fenced separately) instead of
          the coalesced minimum — the before/after ablation for the
          datapath bench *)
  csum : bool;
      (** volume has checksummed metadata records (superblock flag) *)
  quar : Faults.Quarantine.t;
      (** objects quarantined for media corruption; non-empty = degraded *)
  anon : (string, int) Hashtbl.t;
      (** volatile tag → inode registry for [O_TMPFILE]-style anonymous
          files awaiting [linkat]. Rebuilt empty on every mount: after a
          crash the tags are gone and the orphaned inodes are reclaimed
          by recovery, exactly like kernel tmpfiles whose fd died. *)
  oft : (string, oft_entry) Hashtbl.t;
      (** volatile tag → open-handle registry (see {!oft_open}); like
          [anon], rebuilt empty on every mount *)
  oft_lock : Mutex.t;
  snaps : (string, snap_pin) Hashtbl.t;
      (** name → volatile snapshot pin; mutated only by [Snap], always
          under the whole-FS lock on shared devices *)
  mutable on_fence : (unit -> unit) option;
      (** post-fence hook, run after the device drain and the token-epoch
          bump. The interleaved fuzzer parks its coroutine scheduler here
          (each op yields control at its persist points); unlike the
          device-level fence hook this one fires when [Device.in_fence]
          is already clear, so a suspended op resumed later may fence
          again and still be probed. [None] (the default) costs one
          branch per fence. Single-domain use only. *)
}

val make :
  ?csum:bool -> dev:Pmem.Device.t -> geo:Layout.Geometry.t -> cpus:int -> unit -> t

val fence : t -> unit
(** Issue an [sfence] and advance the fence epoch used by shared-fence
    witnesses. Every object-level [fence]/[after_fence] transition checks
    against this epoch. Runs [on_fence] last. *)

val now : t -> int
(** Timestamp source (the device's simulated clock, so runs are
    deterministic). *)

(** {1 Open-file table}

    All entry points take the table's own lock, so concurrent server
    domains can race handle ops against path ops safely; the per-inode
    shard locks still serialize the underlying device work. *)

val oft_open : t -> string -> int -> (unit, Vfs.Errno.t) result
(** Bind [tag] to [ino] with a fresh extent snapshot. [EEXIST] if bound. *)

val oft_close : t -> string -> (unit, Vfs.Errno.t) result
(** Drop [tag], returning any staging reserve to the allocator. [EBADF]
    if not bound. *)

val oft_entry : t -> string -> (oft_entry, Vfs.Errno.t) result
(** The live entry behind [tag], with the extent snapshot revalidated
    against {!Index.file_version} (rebuilt on mismatch). [EBADF] if the
    tag is unbound or the opened file has been destroyed (detected via
    {!Index.file_deaths}, so inode-number reuse cannot revive a stale
    handle). A stale entry stays bound until [close] — the tag is busy,
    like a POSIX fd — but its staging reserve is freed. *)

val oft_resync : t -> oft_entry -> unit
(** Rebuild the snapshot after the caller itself changed the extent map
    (handle writes), so the next access sees a current version. *)

val oft_ino : t -> string -> int option
(** The inode a tag is bound to, without validation (lock-ordering
    lookup for the server engine). *)

(* Token-id namespaces: inodes, page descriptors and dentries are distinct
   objects in the same registry. *)
val inode_oid : int -> int
val dentry_oid : Layout.Geometry.t -> page:int -> slot:int -> int
val range_oid : t -> int
