(* Unit and property tests for the volatile allocator: the run map
   with its per-CPU freed-page stacks (O(1) fully-free state,
   reservation, contiguous/aligned extents, domain-safety), including
   the floor-mod cpu-hint and steal-rotation regressions. *)

module Alloc = Squirrelfs.Alloc
module Geometry = Layout.Geometry

let geo_small = Geometry.compute ~device_size:(2 * 1024 * 1024)
let geo_big = Geometry.compute ~device_size:(8 * 1024 * 1024)

(* An allocator whose run map is empty, so every later allocation is
   served from the per-CPU freed-page stacks: allocate every page, then
   hand back the [(cpu, page)] pairs given, in order. *)
let stacks_only ~cpus frees =
  let t = Alloc.create ~cpus geo_small in
  let rec drain () =
    match Alloc.alloc_page t with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "runs drained" 0 (Alloc.free_page_count t);
  List.iter (fun (cpu, p) -> Alloc.free_page ~cpu t p) frees;
  t

(* {1 cpu-hint normalization (regression: negative hints raised)} *)

let test_negative_cpu_hint () =
  let t = Alloc.create ~cpus:4 geo_small in
  (match Alloc.alloc_page ~cpu:(-1) t with
  | Some p -> Alloc.free_page ~cpu:(-5) t p
  | None -> Alcotest.fail "alloc_page ~cpu:(-1) returned None");
  match Alloc.alloc_page ~cpu:(-7) t with
  | Some _ -> ()
  | None -> Alcotest.fail "alloc_page ~cpu:(-7) returned None"

let test_negative_hint_floor_mod () =
  (* -1 mod 4 must select stack 3 (floor), not stack -1 (truncation),
     and -3 must select stack 1, not stack 3 (|-3 mod 4|). *)
  let t = stacks_only ~cpus:4 [ (0, 0); (1, 1); (2, 2); (3, 3) ] in
  Alcotest.(check (option int)) "cpu -1 is stack 3" (Some 3)
    (Alloc.alloc_page ~cpu:(-1) t);
  Alcotest.(check (option int)) "cpu -3 is stack 1" (Some 1)
    (Alloc.alloc_page ~cpu:(-3) t);
  Alloc.free_page ~cpu:(-3) t 1;
  Alcotest.(check (option int)) "freeing with cpu -3 fills stack 1" (Some 1)
    (Alloc.alloc_page ~cpu:1 t)

(* {1 Steal rotation (regression: steals always drained stack 0 first)} *)

let test_steal_starts_after_requester () =
  let t = stacks_only ~cpus:3 [ (0, 10); (1, 11); (2, 12) ] in
  Alcotest.(check (option int)) "own stack first" (Some 11)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "steal from the stack after the requester"
    (Some 12)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "then wrap around" (Some 10)
    (Alloc.alloc_page ~cpu:1 t);
  Alcotest.(check (option int)) "exhausted" None (Alloc.alloc_page ~cpu:1 t)

let test_steal_fairness () =
  (* Every requester with an empty own stack steals from its successor
     first, whichever CPU it is: with one page on every other stack,
     requester c gets stack (c+1) mod cpus back — no stack is
     systematically drained before the others. *)
  let cpus = 4 in
  for c = 0 to cpus - 1 do
    let others = List.filter (( <> ) c) (List.init cpus Fun.id) in
    let t = stacks_only ~cpus (List.map (fun o -> (o, 100 + o)) others) in
    Alcotest.(check (option int))
      (Printf.sprintf "cpu %d steals from its successor" c)
      (Some (100 + ((c + 1) mod cpus)))
      (Alloc.alloc_page ~cpu:c t);
    (* the rest follow in rotation order *)
    List.iteri
      (fun k _ ->
        Alcotest.(check (option int)) "rotation order"
          (Some (100 + ((c + 2 + k) mod cpus)))
          (Alloc.alloc_page ~cpu:c t))
      (List.tl others);
    Alcotest.(check int) "empty again" 0 (Alloc.free_page_count t)
  done

(* {1 Population, reservation, extents} *)

let test_indexed_inode_order () =
  (* ascending from 2 (root excluded) *)
  let t = Alloc.create ~cpus:2 geo_small in
  Alcotest.(check (option int)) "first" (Some 2) (Alloc.alloc_inode t);
  Alcotest.(check (option int)) "second" (Some 3) (Alloc.alloc_inode t);
  Alloc.free_inode t 2;
  Alcotest.(check (option int)) "freed numbers reallocate LIFO" (Some 2)
    (Alloc.alloc_inode t)

let test_reserve_splits_runs () =
  let t = Alloc.create ~cpus:2 geo_small in
  let n0 = Alloc.free_page_count t in
  Alloc.reserve_page t 10;
  Alcotest.(check int) "one fewer" (n0 - 1) (Alloc.free_page_count t);
  Alcotest.check_raises "double reserve raises"
    (Invalid_argument "Core.Alloc.reserve_page: page is not free") (fun () ->
      Alloc.reserve_page t 10);
  (* the split runs still hand out everything around the hole *)
  Alloc.free_page t 10;
  Alcotest.(check int) "returned" n0 (Alloc.free_page_count t);
  Alloc.reserve_inode t 5;
  Alcotest.check_raises "double inode reserve raises"
    (Invalid_argument "Core.Alloc.reserve_inode: inode is not free") (fun () ->
      Alloc.reserve_inode t 5)

let test_extent_contiguous_and_aligned () =
  let t = Alloc.create ~cpus:2 geo_big in
  (match Alloc.alloc_extent t 8 with
  | Some (start, len) ->
      Alcotest.(check int) "length as asked" 8 len;
      ignore start
  | None -> Alcotest.fail "extent on a fresh allocator");
  match Alloc.alloc_extent ~align:16 t 8 with
  | Some (start, _) ->
      Alcotest.(check int) "aligned start" 0 (start mod 16)
  | None -> Alcotest.fail "aligned extent"

let test_extent_free_coalesces () =
  let t = Alloc.create ~cpus:2 geo_small in
  let total = Alloc.free_page_count t in
  match Alloc.alloc_extent t 64 with
  | None -> Alcotest.fail "extent"
  | Some (start, len) ->
      Alcotest.(check int) "taken" (total - 64) (Alloc.free_page_count t);
      (* free in two halves: they must coalesce back into one run big
         enough to satisfy the same extent again at the same place *)
      Alloc.free_extent t ~start:(start + 32) ~len:(len - 32);
      Alloc.free_extent t ~start ~len:32;
      Alcotest.(check int) "conserved" total (Alloc.free_page_count t);
      (match Alloc.alloc_extent t 64 with
      | Some (s2, _) -> Alcotest.(check int) "same placement" start s2
      | None -> Alcotest.fail "coalesced extent lost")

let test_alloc_pages_hugepage_alignment () =
  let t = Alloc.create ~cpus:2 geo_big in
  (* skew the run map so an unaligned prefix exists *)
  Alloc.reserve_page t 0;
  let n = Alloc.hugepage_pages in
  match Alloc.alloc_pages t n with
  | None -> Alcotest.fail "hugepage-sized alloc failed"
  | Some pages ->
      let first = List.hd pages in
      Alcotest.(check int) "hugepage aligned" 0 (first mod n);
      Alcotest.(check int) "count" n (List.length pages);
      List.iteri
        (fun i p -> Alcotest.(check int) "ascending contiguous" (first + i) p)
        pages

(* {1 Domain-parallel properties} *)

let prop_parallel_conserves =
  QCheck.Test.make ~count:15
    ~name:"parallel alloc/free: conserved count, no double allocation"
    QCheck.(pair (int_range 1 48) (int_range 2 4))
    (fun (per_domain, nd) ->
      let t = Alloc.create ~cpus:nd geo_big in
      let total = Alloc.free_page_count t in
      let worker id =
        Domain.spawn (fun () ->
            let singles = ref [] in
            for _ = 1 to per_domain do
              match Alloc.alloc_page ~cpu:id t with
              | Some p -> singles := p :: !singles
              | None -> ()
            done;
            let ext = Alloc.alloc_extent ~align:8 t 8 in
            (!singles, ext))
      in
      let results = List.init nd worker |> List.map Domain.join in
      let all_pages =
        List.concat_map
          (fun (singles, ext) ->
            singles
            @
            match ext with
            | Some (s, l) -> List.init l (fun i -> s + i)
            | None -> [])
          results
      in
      let distinct = List.sort_uniq compare all_pages in
      let no_dups = List.length distinct = List.length all_pages in
      let count_ok =
        Alloc.free_page_count t = total - List.length all_pages
      in
      (* return everything; the allocator must account back to full *)
      List.iter
        (fun (singles, ext) ->
          List.iter (Alloc.free_page t) singles;
          match ext with
          | Some (s, l) -> Alloc.free_extent t ~start:s ~len:l
          | None -> ())
        results;
      no_dups && count_ok && Alloc.free_page_count t = total)

let prop_extents_disjoint =
  QCheck.Test.make ~count:25 ~name:"extent allocations are pairwise disjoint"
    QCheck.(list_of_size Gen.(1 -- 12) (int_range 1 32))
    (fun sizes ->
      let t = Alloc.create ~cpus:2 geo_big in
      let exts = List.filter_map (fun n -> Alloc.alloc_extent t n) sizes in
      let pages =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) exts
      in
      List.length (List.sort_uniq compare pages) = List.length pages)

let unit_tests =
  [
    ("negative cpu hints accepted", `Quick, test_negative_cpu_hint);
    ("negative hint is floor-mod", `Quick, test_negative_hint_floor_mod);
    ("steal starts after requester", `Quick, test_steal_starts_after_requester);
    ("steal rotation fairness", `Quick, test_steal_fairness);
    ("indexed inode order", `Quick, test_indexed_inode_order);
    ("reserve splits runs", `Quick, test_reserve_splits_runs);
    ("extents contiguous and aligned", `Quick, test_extent_contiguous_and_aligned);
    ("freed extents coalesce", `Quick, test_extent_free_coalesces);
    ("hugepage-aligned alloc_pages", `Quick, test_alloc_pages_hugepage_alignment);
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parallel_conserves; prop_extents_disjoint ]

let () =
  Alcotest.run "alloc" [ ("alloc", unit_tests); ("alloc-props", prop_tests) ]
