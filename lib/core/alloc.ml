(* Volatile allocators (paper §3.4).

   Free space is a map of maximal runs (start -> len) with a by-length
   index, per-CPU LIFO stacks for recently freed singles, and the same
   run structure for inode numbers. The fully-free state is O(1) from
   geometry (one run covering everything), single-page alloc and
   reservation are O(log runs), and contiguous extents — optionally
   alignment-constrained, WineFS-style — are carved straight from the
   run index. Mount rebuild starts from the fully-free state and
   *reserves* the allocated objects it discovers, so its allocator cost
   is proportional to live data, never to volume size. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

let floor_mod a b = ((a mod b) + b) mod b

type t = {
  cpus : int;
  lock : Mutex.t;
  (* inode space: freed numbers reallocate LIFO, then the untouched
     run-set ascending *)
  mutable ino_stack : int list;
  mutable ino_runs : int Imap.t; (* start -> len, never-reused inodes *)
  mutable ino_free : int; (* stack + runs *)
  (* page space *)
  mutable runs : int Imap.t; (* start -> len, maximal free runs *)
  mutable by_len : Iset.t Imap.t; (* len -> set of run starts *)
  mutable run_pages : int;
  stacks : int list array; (* per-CPU freed singles, LIFO *)
  stack_sizes : int array;
  region : int; (* pages per CPU placement region *)
}

let cpus t = t.cpus

(* {1 Run-map primitives} *)

let by_len_add t ~start ~len =
  t.by_len <-
    Imap.update len
      (function
        | None -> Some (Iset.singleton start)
        | Some s -> Some (Iset.add start s))
      t.by_len

let by_len_remove t ~start ~len =
  t.by_len <-
    Imap.update len
      (function
        | None -> None
        | Some s ->
            let s = Iset.remove start s in
            if Iset.is_empty s then None else Some s)
      t.by_len

let run_insert_raw t ~start ~len =
  t.runs <- Imap.add start len t.runs;
  by_len_add t ~start ~len

let run_remove_raw t ~start ~len =
  t.runs <- Imap.remove start t.runs;
  by_len_remove t ~start ~len

(* Insert a free run, coalescing with physical neighbours. Only the
   newly freed pages count toward [run_pages]; absorbed neighbours are
   already counted. *)
let run_insert t ~start ~len =
  let freed = len in
  let start, len =
    match Imap.find_last_opt (fun s -> s < start) t.runs with
    | Some (s, l) when s + l >= start ->
        if s + l > start then
          invalid_arg "Core.Alloc: double free (overlaps a free run)";
        run_remove_raw t ~start:s ~len:l;
        (s, l + len)
    | _ -> (start, len)
  in
  let len =
    match Imap.find_opt (start + len) t.runs with
    | Some l2 ->
        run_remove_raw t ~start:(start + len) ~len:l2;
        len + l2
    | None -> len
  in
  run_insert_raw t ~start ~len;
  t.run_pages <- t.run_pages + freed

(* Carve [want, want+n) out of the run starting at [start]. *)
let run_carve t ~start ~len ~want ~n =
  run_remove_raw t ~start ~len;
  if want > start then run_insert_raw t ~start ~len:(want - start);
  let tail = start + len - (want + n) in
  if tail > 0 then run_insert_raw t ~start:(want + n) ~len:tail;
  t.run_pages <- t.run_pages - n

(* Fully-free allocator in O(1): one inode run [2, inode_count], one
   page run [0, page_count). Mount rebuild starts here and carves out
   the live objects it discovers with [reserve_*]. *)
let create ~cpus (g : Layout.Geometry.t) =
  let t =
    {
      cpus;
      lock = Mutex.create ();
      ino_stack = [];
      ino_runs =
        (if g.inode_count >= 2 then Imap.singleton 2 (g.inode_count - 1)
         else Imap.empty);
      ino_free = (if g.inode_count >= 2 then g.inode_count - 1 else 0);
      runs = Imap.empty;
      by_len = Imap.empty;
      run_pages = 0;
      stacks = Array.make cpus [];
      stack_sizes = Array.make cpus 0;
      region = (g.page_count + cpus - 1) / cpus;
    }
  in
  if g.page_count > 0 then run_insert t ~start:0 ~len:g.page_count;
  t

(* {1 Inodes} *)

let alloc_inode t =
  match t.ino_stack with
  | ino :: rest ->
      t.ino_stack <- rest;
      t.ino_free <- t.ino_free - 1;
      Some ino
  | [] -> (
      match Imap.min_binding_opt t.ino_runs with
      | None -> None
      | Some (s, l) ->
          t.ino_runs <- Imap.remove s t.ino_runs;
          if l > 1 then t.ino_runs <- Imap.add (s + 1) (l - 1) t.ino_runs;
          t.ino_free <- t.ino_free - 1;
          Some s)

let free_inode t ino =
  t.ino_stack <- ino :: t.ino_stack;
  t.ino_free <- t.ino_free + 1

let reserve_inode t ino =
  match Imap.find_last_opt (fun s -> s <= ino) t.ino_runs with
  | Some (s, l) when ino < s + l ->
      t.ino_runs <- Imap.remove s t.ino_runs;
      if ino > s then t.ino_runs <- Imap.add s (ino - s) t.ino_runs;
      if s + l - (ino + 1) > 0 then
        t.ino_runs <- Imap.add (ino + 1) (s + l - (ino + 1)) t.ino_runs;
      t.ino_free <- t.ino_free - 1
  | _ ->
      if List.mem ino t.ino_stack then begin
        t.ino_stack <- List.filter (fun i -> i <> ino) t.ino_stack;
        t.ino_free <- t.ino_free - 1
      end
      else invalid_arg "Core.Alloc.reserve_inode: inode is not free"

(* {1 Pages} *)

let pop_stack t cpu =
  match t.stacks.(cpu) with
  | [] -> None
  | p :: rest ->
      t.stacks.(cpu) <- rest;
      t.stack_sizes.(cpu) <- t.stack_sizes.(cpu) - 1;
      Some p

(* Carve one page from the run map, preferring the requesting CPU's
   placement region so independent CPUs spread across the volume. *)
let carve_single t cpu =
  if t.run_pages = 0 then None
  else begin
    let start, len =
      match Imap.find_first_opt (fun s -> s >= cpu * t.region) t.runs with
      | Some (s, l) -> (s, l)
      | None -> Imap.min_binding t.runs
    in
    run_carve t ~start ~len ~want:start ~n:1;
    Some start
  end

let alloc_page ?(cpu = 0) t =
  let cpu = floor_mod cpu t.cpus in
  match pop_stack t cpu with
  | Some p -> Some p
  | None -> (
      match carve_single t cpu with
      | Some p -> Some p
      | None ->
          (* Steal, scanning from the stack after the requester and
             rotating — not always from stack 0, which would drain
             low-index stacks first and skew per-CPU locality. *)
          let rec steal k =
            if k = t.cpus then None
            else
              let i = (cpu + 1 + k) mod t.cpus in
              if t.stack_sizes.(i) > 0 then pop_stack t i else steal (k + 1)
          in
          steal 0)

let free_page ?(cpu = 0) t page =
  let cpu = floor_mod cpu t.cpus in
  t.stacks.(cpu) <- page :: t.stacks.(cpu);
  t.stack_sizes.(cpu) <- t.stack_sizes.(cpu) + 1

let reserve_page t page =
  match Imap.find_last_opt (fun s -> s <= page) t.runs with
  | Some (s, l) when page < s + l -> run_carve t ~start:s ~len:l ~want:page ~n:1
  | _ -> invalid_arg "Core.Alloc.reserve_page: page is not free"

let free_page_count t = t.run_pages + Array.fold_left ( + ) 0 t.stack_sizes
let free_inode_count t = t.ino_free

(* 2 MiB of 4 KiB pages: the alignment unit for huge allocations. *)
let hugepage_pages = 512

(* Contiguous extent of [n] pages, optionally at an [align]-page
   boundary (WineFS-style hugepage placement). Carved from the run
   index: smallest run that fits wins, smallest start among equals.
   [None] when fragmentation leaves no contiguous fit. *)
let alloc_extent ?(align = 1) t n =
  if n <= 0 || align <= 0 then invalid_arg "Core.Alloc.alloc_extent";
  let aligned_want start = (start + align - 1) / align * align in
  let fit (start, len) =
    let w = aligned_want start in
    if w + n <= start + len then Some (start, len, w) else None
  in
  let pick need =
    match Imap.find_first_opt (fun l -> l >= need) t.by_len with
    | None -> None
    | Some (len, starts) -> fit (Iset.min_elt starts, len)
  in
  let choice =
    match pick n with
    | Some _ as c -> c
    | None ->
        (* alignment didn't fit the tightest run: a run of
           n + align - 1 pages always contains an aligned window *)
        if align > 1 then pick (n + align - 1) else None
  in
  match choice with
  | None -> None
  | Some (start, len, want) ->
      run_carve t ~start ~len ~want ~n;
      Some (want, n)

let free_extent t ~start ~len =
  if len <= 0 then invalid_arg "Core.Alloc.free_extent";
  run_insert t ~start ~len

let alloc_pages ?(cpu = 0) t n =
  if free_page_count t < n then None
  else begin
    (* Prefer one contiguous extent — ascending physical pages, so
       large files lay out sequentially and the split data path can
       relink whole extents. Hugepage-sized allocations also try for a
       hugepage-aligned start first (WineFS-style placement).
       Fragmented volumes fall back to page-at-a-time. *)
    let extent =
      if n >= 2 then
        let aligned =
          if n >= hugepage_pages then alloc_extent ~align:hugepage_pages t n
          else None
        in
        match (match aligned with Some _ as e -> e | None -> alloc_extent t n)
        with
        | Some (start, len) -> Some (List.init len (fun i -> start + i))
        | None -> None
      else None
    in
    match extent with
    | Some pages -> Some pages
    | None -> (
        let rec go acc k =
          if k = 0 then Some acc
          else
            match alloc_page ~cpu t with
            | Some p -> go (p :: acc) (k - 1)
            | None -> (* cannot happen: we checked the total *) None
        in
        match go [] n with
        | Some pages -> Some (List.rev pages)
        | None -> None)
  end

(* {1 Concurrency}

   The inode free structures and the page stacks/runs are shared by
   every domain executing ops under the [Serve] engine (stealing
   crosses the stacks, so per-stack locks would not be enough). Each
   public entry point takes one short critical section on the
   instance's own lock; the wrappers shadow the lock-free bodies above,
   which keep calling each other directly ([alloc_pages] ->
   [alloc_page] stays on the unlocked bodies, so a plain [Mutex] is
   enough), and independent mounts never contend. *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let alloc_inode t = locked t (fun () -> alloc_inode t)
let free_inode t ino = locked t (fun () -> free_inode t ino)
let reserve_inode t ino = locked t (fun () -> reserve_inode t ino)
let reserve_page t page = locked t (fun () -> reserve_page t page)
let alloc_page ?cpu t = locked t (fun () -> alloc_page ?cpu t)
let free_page ?cpu t page = locked t (fun () -> free_page ?cpu t page)
let alloc_extent ?align t n = locked t (fun () -> alloc_extent ?align t n)
let free_extent t ~start ~len = locked t (fun () -> free_extent t ~start ~len)
let free_page_count t = locked t (fun () -> free_page_count t)
let free_inode_count t = locked t (fun () -> free_inode_count t)
let alloc_pages ?cpu t n = locked t (fun () -> alloc_pages ?cpu t n)
