(** Differential crash-state executor: one op sequence run against
    SquirrelFS on a simulated PM device and against {!Ref_fs}
    simultaneously, with crash-image enumeration + remount + [Fsck] +
    prefix-consistency checking at every persist point. *)

type crash_point = {
  cp_op : int;  (** index of the op being executed when the check failed *)
  cp_fence : int;  (** 1-based global fence count at the failing probe *)
  cp_image : int;  (** index within that fence's enumerated images; -1 for
                       failures not tied to a crash image (differential
                       return-value mismatches, live-fsck failures) *)
}

type outcome = {
  o_report : Crashcheck.Harness.report;
      (** one-workload report, mergeable with crash-harness reports *)
  o_fail : (crash_point * string) option;
      (** first violation, if any: the executor stops at the first *)
  o_divergences : int;
      (** benign capacity divergences (SquirrelFS [ENOSPC]/[EMLINK] where
          the unlimited model succeeded; the model is rolled back) *)
  o_sim_ns : int;
      (** simulated ns consumed on the main device by the workload itself
          (charged from the post-mkfs baseline, so the value is identical
          whether the device was fresh or pooled) *)
  o_state_sig : int64;
      (** deterministic fingerprint of the sequence's full crash-state
          trace: an FNV-1a-style fold of every probed crash image's
          content hash, in order. A function of (ops, config) only —
          independent of pooling, memo state and domain placement — so
          {!Enum} counts duplicate sequences with it order-independently
          across [-j] shards (see {!Crashcheck.Probe.state_sig}). *)
}

(** Per-domain resource pool: one formatted device (template-blit reset
    between runs instead of allocate + mkfs), its scratch buffer, and the
    content-hash-keyed {!Crashcheck.Probe.memo}, all carried across the
    runs that share the pool. Pooling is invisible in outcomes: reports,
    [states_deduped] and [o_sim_ns] are bit-identical with and without a
    pool. A pool is single-domain state — share one per domain/shard,
    never across domains. *)
module Pool : sig
  type t

  val create : unit -> t
end

val apply_sq : Squirrelfs.Fsctx.t -> Crashcheck.Workload.op -> (unit, Vfs.Errno.t) result
(** Apply one op to a live SquirrelFS, [Buggy_*] variants included (guarded
    so failed preconditions return the model's errno instead of raising;
    the guards understand root-level paths, which is all the generator
    emits). *)

val run :
  ?device_size:int ->
  ?sparse:bool ->
  ?max_images_per_fence:int ->
  ?media_images_per_fence:int ->
  ?faults:Faults.Plan.t ->
  ?latency:Pmem.Latency.t ->
  ?pool:Pool.t ->
  ?trace:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  Crashcheck.Workload.op list ->
  outcome
(** Defaults: 256 KiB device, 8 crash images per fence, 4 media images
    per fence, [Faults.none], zero latency, no pool
    (fresh device + mkfs per call). [?sparse] forces the device's
    backing representation (default: {!Pmem.Device.create}'s size-based
    choice). A sparse run is coverage-equivalent to a dense one —
    identical ops, fences, violations and {e unique} crash states — but
    may probe fewer duplicate images, because a sparse device prunes
    provably-no-op pending stores (zeroing a never-touched line). [?trace] records the workload's
    store/flush/fence stream (opened with a geometry + durable-state
    preamble, see {!Squirrelfs.Tracing}); [?metrics] counts device and
    token traffic and op latencies. Neither perturbs the outcome: a traced
    run is bit-identical to an untraced one. With a
    non-trivial [?faults] plan the volume is formatted [~csum:true], the
    plan is installed, and torn/stuck media images (from
    [crash_views_faulty]) get the graceful-handling check on top of the
    pure crash images. Every fence is checked by one {!Crashcheck.Probe}.
    Fully deterministic for fixed arguments. *)
