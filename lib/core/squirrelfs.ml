(** SquirrelFS: a persistent-memory file system whose Synchronous Soft
    Updates crash-consistency mechanism is enforced through typestate
    (phantom types + runtime linearity tokens). Top-level façade: the
    {!Vfs.Fs.S} implementation plus the internal modules for tests,
    benchmarks and tools. *)

module Fsctx = Fsctx
module Locks = Locks
module Alloc = struct
  include Alloc

  (* Names from the era of two allocator representations, still called
     by the benchmark harness under [perfbench/]. There is one
     allocator now, so each builds {!Alloc.create}'s fully-free state.
     Remove them when that harness next changes. *)
  let is_indexed (_ : t) = true
  let indexed_populated = create
  let populated = create
end
module Index = Index
module Objects = Objects
module Ops = Ops
module Mount = Mount
module Fsck = Fsck
module Tracing = Tracing

include Fs_impl
