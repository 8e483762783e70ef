(** The crash-state probe: the one dynamic crash-consistency check that
    {!Harness}, [Fuzzer.Exec] and [Fuzzer.Interleave] all drive.

    At a store fence, {!fence} enumerates the device's legal crash views
    under the x86 persistence model ({!Pmem.Device.crash_views}), patches
    each into the device's scratch buffer and mounts it zero-copy
    (running recovery). A state passes if it has a superblock, passes
    {!Squirrelfs.Fsck.check_raw}, mounts (not degraded, on a checksummed
    volume), passes {!Squirrelfs.Fsck.check}, and its captured tree is
    one of the caller's [legal] states. With torn/stuck media faults in
    the plan, faulty views ({!Pmem.Device.crash_views_faulty}) are
    probed too, for graceful handling only: mount and fsck must not
    raise.

    Everything up to the capture depends only on the image bytes, so it
    is memoized by 64-bit full-content view hash in a {!memo} that can
    be carried across runs. The comparison with [legal] runs for every
    occurrence. *)

type memo
(** Content-hash verdict cache. Share it only across runs at one device
    size and one fault plan (the checksum check depends on the plan),
    and only within one domain. Sharing never changes a count or a
    verdict; it only skips rechecking states that recur. *)

val memo_create : unit -> memo
val memo_clear : memo -> unit

type t
(** One run's probe: its counters and its dedup tables. *)

val create :
  ?memo:memo ->
  ?faults:Faults.Plan.t ->
  ?compare_data:bool ->
  ?media_images:int ->
  max_images:int ->
  Pmem.Device.t ->
  t
(** A probe of the given device, sampling at most [max_images] crash
    views per fence. A non-trivial [faults] plan means the volume is
    checksummed; if the plan tears or sticks lines, each fence also
    samples [media_images] (default 4) faulty views. [compare_data]
    (default false) includes file contents in the legal-state
    comparison. Without [?memo] the cache is private to this run. *)

val fence :
  t ->
  legal:Vfs.Logical.t list ->
  on_violation:(image:int -> string -> unit) ->
  unit
(** Probe the device's current crash views. Each failing state is
    reported through [on_violation ~image detail], where [image] is the
    view's index within this fence and [detail] is its first failing
    check. [on_violation] may raise to stop the probe. *)

val fences : t -> int
(** Calls to {!fence} so far. *)

val states : t -> int
(** Crash views probed, duplicates included. *)

val media_states : t -> int
(** Faulty views probed. *)

val deduped : t -> int
(** Probed views (pure or faulty) whose content this probe had already
    seen earlier in the same run. Independent of the memo's lifetime. *)

val state_sig : t -> int64
(** FNV-1a-style fold of every probed view's content hash, in probe
    order: a fingerprint of the run's crash-state trace that depends on
    the ops and configuration only. *)
