(** Crash-consistency testing harness (Chipmunk substitute). *)

module Workload = Workload
module Probe = Probe
module Harness = Harness
module Buggy = Buggy
