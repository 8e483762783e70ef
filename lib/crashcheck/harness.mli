(** Crash-consistency harness (the role of Chipmunk, §5.7).

    For each workload the harness:

    + runs the workload on a pristine {e oracle} volume, capturing the
      logical state after every operation — since all SquirrelFS metadata
      operations are synchronous and crash-atomic, a crash during
      operation [k] must recover to exactly the state after [k-1] or
      after [k] operations;
    + replays the workload on a fresh volume with a fence hook installed:
      at every store fence it enumerates the legal crash images under the
      x86 persistence model and checks each one with {!Probe} against
      the oracle pair;
    + probes the final durable state the same way.

    Data contents are excluded from the comparison (data-plane writes are
    not atomic in SquirrelFS or in any of the baselines, matching the
    paper); sizes and all metadata are compared.

    {2 Fault injection}

    With a non-trivial [?faults] plan the real volume is formatted with
    checksummed metadata ([mkfs ~csum:true]) and the plan is installed on
    its device. Three extra obligations are then checked:

    - {e pure crash images} (no media damage) must never trip the media
      pre-pass: SSU seals every record before committing it, so a
      quarantine on a plain crash image means some code path published an
      unsealed record (this catches the [Buggy_*] variants on csum
      volumes);
    - {e media crash images} (torn / stuck cache lines sampled per the
      plan's rates) are not legal SSU states, so the contract is graceful
      handling only: mount and fsck must not raise;
    - after the workload, {e Phase B} flips one seeded bit in the sealed
      region of up to [bit_flips] committed inode records and requires
      the full pipeline: the scrubber flags every damaged line, a remount
      comes up degraded with the damaged inodes quarantined, their paths
      return a clean [EIO], and the rest of the tree stays readable. *)

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
      (** crash/media states whose content this workload had already
          probed (see {!Probe.deduped}). Deduped states still count in
          [crash_states]/[media_states] and still get the per-occurrence
          oracle comparison. *)
  media_states : int;  (** faulty (torn/stuck) crash images checked *)
  faults_injected : int;  (** bit flips + torn + stuck + read faults *)
  faults_detected : int;  (** injected flips caught by checksum quarantine *)
  faults_quarantined : int;  (** objects quarantined across remounts *)
  eio_checks : int;  (** quarantined paths that correctly returned [EIO] *)
  violations : violation list;
}

val run_workload :
  ?device_size:int ->
  ?max_images_per_fence:int ->
  ?media_images_per_fence:int ->
  ?compare_data:bool ->
  ?faults:Faults.Plan.t ->
  ?memo:Probe.memo ->
  Workload.op list ->
  report
(** Defaults: 512 KiB device, 12 images per fence, 4 media images per
    fence, [faults = Faults.none] (in which case the run is bit-identical
    to the pre-fault-subsystem harness), no shared [?memo] (verdicts
    cached within the workload only). Every fence is checked by one
    {!Probe}; each bad crash state yields one violation naming its first
    failing check. [compare_data]
    (default false) additionally compares file contents against the
    oracle — only meaningful for workloads whose data writes are all
    [Write_atomic], since regular data writes are not crash-atomic (in
    SquirrelFS or any of the baselines, matching the paper). *)

val run_suite :
  ?device_size:int ->
  ?max_images_per_fence:int ->
  ?media_images_per_fence:int ->
  ?compare_data:bool ->
  ?faults:Faults.Plan.t ->
  ?progress:(int -> int -> unit) ->
  Workload.op list list ->
  report
(** Folds {!run_workload} over the suite with {!merge}, sharing one
    {!Probe.memo} across all workloads (they run at one device size, so
    verdicts for recurring states carry over). *)

val empty : report
val merge : report -> report -> report
val pp_report : Format.formatter -> report -> unit
