(** Volatile allocators (paper §3.4).

    Allocation state is not persisted: it is rebuilt from the on-PM
    tables at mount. SquirrelFS uses a per-CPU page allocator and a
    single shared inode allocator.

    Free space is kept as maximal runs with a by-length index, plus
    per-CPU stacks of recently freed pages. The fully-free state is
    built in O(1) from geometry, single-page allocation and
    {!reserve_page}/{!reserve_inode} are O(log runs), and contiguous
    (optionally aligned) extents are carved directly from the run
    index. Mount starts from {!create} and reserves the live objects
    its scan finds, so rebuilding costs time in live data, not in
    volume size. *)

type t

val create : cpus:int -> Layout.Geometry.t -> t
(** Allocator with every inode (except the root) and every page free,
    in O(1): one run each. Carve out live objects with
    {!reserve_inode}/{!reserve_page}. *)

val cpus : t -> int

val reserve_inode : t -> int -> unit
val reserve_page : t -> int -> unit
(** Remove one currently-free object from the allocator (the mount
    rebuild: start fully free, reserve what the scan finds live).
    O(log runs); raises [Invalid_argument] if not free. *)

val alloc_inode : t -> int option
(** Freed numbers first (LIFO), then never-used numbers ascending. *)

val free_inode : t -> int -> unit

val alloc_page : ?cpu:int -> t -> int option
(** Takes from the given CPU's freed-page stack, then from the run map
    starting at that CPU's placement region, and only then steals from
    the other CPUs' stacks. The steal scan starts at the stack after
    the requesting CPU and rotates, so no stack drains first
    systematically. Negative [cpu] hints are floor-normalized into
    range. *)

val alloc_pages : ?cpu:int -> t -> int -> int list option
(** [n] pages or nothing (no partial allocation). Prefers one
    physically contiguous ascending extent, falling back to
    page-at-a-time under fragmentation. *)

val free_page : ?cpu:int -> t -> int -> unit

val hugepage_pages : int
(** Pages per 2 MiB hugepage — the alignment {!alloc_pages} requests
    for allocations at least this large. *)

val alloc_extent : ?align:int -> t -> int -> (int * int) option
(** [alloc_extent ?align t n] carves a physically contiguous run of [n]
    pages whose start is a multiple of [align] (WineFS-style hugepage
    placement), returning [(start, n)]. Smallest fitting run wins,
    lowest start among equals. [None] when no contiguous fit exists. *)

val free_extent : t -> start:int -> len:int -> unit
(** Return a contiguous run; it is reinserted with coalescing, so
    extents survive churn. *)

val free_inode_count : t -> int
val free_page_count : t -> int
