(* Unit and property tests for the PM device simulator: visibility,
   durability, atomicity and crash-image semantics. *)

module Device = Pmem.Device
module Latency = Pmem.Latency
module Sbuf = Pmem.Sbuf

let bytes_eq = Alcotest.testable (fun ppf b -> Fmt.string ppf (Bytes.to_string b |> String.escaped)) Bytes.equal

let mk ?(size = 4096) () = Device.create ~size ()

let read_str dev off len = Bytes.to_string (Device.read dev ~off ~len)

let test_store_visible () =
  let dev = mk () in
  Device.store dev ~off:100 "hello";
  Alcotest.(check string) "latest sees store" "hello" (read_str dev 100 5)

let test_store_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  let img = Device.image_durable dev in
  Alcotest.(check string) "durable unchanged" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_flush_alone_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.flush dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  Alcotest.(check string) "flush without fence not durable" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_fence_alone_not_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.fence dev;
  let img = Device.image_durable dev in
  Alcotest.(check string) "fence without flush not durable" "\000\000\000"
    (Bytes.sub_string img 0 3)

let test_persist_durable () =
  let dev = mk () in
  Device.store dev ~off:0 "abc";
  Device.persist dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  Alcotest.(check string) "persist makes durable" "abc"
    (Bytes.sub_string img 0 3);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev)

(* Inputs: a line never stored before, and a line that a fence already
   drained completely (so it left the in-flight set) before the
   unflushed store hit it again. Either way the fence must leave it
   pending. *)
let test_store_after_flush_stays_pending () =
  List.iter
    (fun predrained ->
      let dev = mk () in
      if predrained then begin
        Device.store dev ~off:64 "zzzz";
        Device.persist dev ~off:64 ~len:4
      end;
      Device.store dev ~off:0 "aaaa";
      Device.flush dev ~off:0 ~len:4;
      Device.store dev ~off:64 "bbbb";
      (* second store is in a different line and was never flushed *)
      let drained0 = (Device.stats dev).lines_drained in
      Device.fence dev;
      let img = Device.image_durable dev in
      Alcotest.(check string) "flushed store durable" "aaaa"
        (Bytes.sub_string img 0 4);
      Alcotest.(check string) "unflushed store not durable"
        (if predrained then "zzzz" else "\000\000\000\000")
        (Bytes.sub_string img 64 4);
      Alcotest.(check int) "only the flushed line drained" 1
        ((Device.stats dev).lines_drained - drained0);
      Alcotest.(check int) "unflushed line still pending" 1
        (Device.pending_line_count dev);
      Device.fence dev;
      Alcotest.(check int) "a second fence drains nothing" (drained0 + 1)
        (Device.stats dev).lines_drained)
    [ false; true ]

(* A line flushed twice before one fence is in flight once: it drains
   once, and every record either flush covered becomes durable. *)
let test_double_flush_drains_once () =
  let dev = mk () in
  Device.store dev ~off:0 "aaaa";
  Device.flush dev ~off:0 ~len:4;
  Device.store dev ~off:8 "bbbb";
  Device.flush dev ~off:0 ~len:64;
  Device.fence dev;
  Alcotest.(check int) "one line drained" 1 (Device.stats dev).lines_drained;
  let img = Device.image_durable dev in
  Alcotest.(check string) "both records durable" "aaaa\000\000\000\000bbbb"
    (Bytes.sub_string img 0 12);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev)

let test_same_line_partial_flush () =
  let dev = mk () in
  Device.store dev ~off:0 "aaaa";
  Device.flush dev ~off:0 ~len:4;
  (* store to the same line after the clwb: not covered by it *)
  Device.store dev ~off:8 "bbbb";
  Device.fence dev;
  let img = Device.image_durable dev in
  Alcotest.(check string) "pre-clwb store durable" "aaaa"
    (Bytes.sub_string img 0 4);
  Alcotest.(check string) "post-clwb store pending" "\000\000\000\000"
    (Bytes.sub_string img 8 4);
  Alcotest.(check bool) "still dirty" false (Device.is_quiescent dev)

let test_u64_roundtrip () =
  let dev = mk () in
  let v = 0x1234_5678_9abc_def in
  Device.store_u64 dev 512 v;
  Alcotest.(check int) "u64 roundtrip" v (Device.read_u64 dev 512)

let test_u64_atomic_in_crash () =
  let dev = mk () in
  Device.store_u64 dev 0 0x1111111111111111;
  Device.persist dev ~off:0 ~len:8;
  Device.store_u64 dev 0 0x2222222222222222;
  let images = Device.crash_images dev in
  List.iter
    (fun img ->
      let d = Device.of_image img in
      let v = Device.read_u64 d 0 in
      Alcotest.(check bool) "either old or new, never torn" true
        (v = 0x1111111111111111 || v = 0x2222222222222222))
    images;
  Alcotest.(check int) "two crash states" 2 (List.length images)

let test_unaligned_u64_rejected () =
  let dev = mk () in
  Alcotest.check_raises "unaligned store_u64"
    (Invalid_argument "Pmem.Device.store_u64: unaligned") (fun () ->
      Device.store_u64 dev 4 1)

let test_large_store_can_tear () =
  let dev = mk () in
  (* A 16-byte store spans two 8-byte words: it may tear between them. *)
  Device.store dev ~off:0 "AAAAAAAABBBBBBBB";
  let images = Device.crash_images dev in
  Alcotest.(check int) "three crash states (0, 1 or 2 words)" 3
    (List.length images);
  let strings =
    List.map (fun img -> Bytes.sub_string img 0 16) images
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "torn states"
    (List.sort compare
       [
         String.make 16 '\000';
         "AAAAAAAA" ^ String.make 8 '\000';
         "AAAAAAAABBBBBBBB";
       ])
    strings

let test_cross_line_independent () =
  let dev = mk () in
  (* Two stores to different lines may persist in either order. *)
  Device.store_u64 dev 0 1;
  Device.store_u64 dev 64 2;
  let images = Device.crash_images dev in
  Alcotest.(check int) "2x2 crash states" 4 (List.length images);
  let exists f = List.exists f images in
  let v img off = Int64.to_int (Bytes.get_int64_le img off) in
  Alcotest.(check bool) "second without first possible" true
    (exists (fun img -> v img 0 = 0 && v img 64 = 2))

let test_same_word_ordered () =
  let dev = mk () in
  (* Two stores to the same word drain in order: the second cannot persist
     "without" the first (it overwrites it). Prefixes: none, first, both. *)
  Device.store_u64 dev 0 1;
  Device.store_u64 dev 0 2;
  let images = Device.crash_images dev in
  let vals =
    List.map (fun img -> Int64.to_int (Bytes.get_int64_le img 0)) images
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "prefix values" [ 0; 1; 2 ] vals

let test_of_image_quiescent () =
  let dev = mk () in
  Device.store dev ~off:0 "xyz";
  Device.persist dev ~off:0 ~len:3;
  let img = Device.image_durable dev in
  let dev2 = Device.of_image img in
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev2);
  Alcotest.(check string) "content preserved" "xyz" (read_str dev2 0 3)

let test_zero_latency_clock () =
  let dev = mk () in
  Device.store dev ~off:0 "abcd";
  Device.persist dev ~off:0 ~len:4;
  Alcotest.(check int) "zero profile costs nothing" 0 (Device.now_ns dev)

let test_optane_latency_clock () =
  let dev = Device.create ~latency:Latency.optane ~size:4096 () in
  Device.store_u64 dev 0 42;
  let after_store = Device.now_ns dev in
  Alcotest.(check int) "store cost" Latency.optane.store_ns after_store;
  Device.flush dev ~off:0 ~len:8;
  Device.fence dev;
  let expected =
    Latency.optane.store_ns + Latency.optane.flush_ns
    + Latency.optane.fence_base_ns + Latency.optane.fence_line_ns
  in
  Alcotest.(check int) "persist cost" expected (Device.now_ns dev)

let test_charge () =
  let dev = mk () in
  Device.charge dev 500;
  Alcotest.(check int) "charged" 500 (Device.now_ns dev)

let test_fence_hook_runs () =
  let dev = mk () in
  let calls = ref 0 in
  Device.set_fence_hook dev (Some (fun _ -> incr calls));
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  Device.fence dev;
  Alcotest.(check int) "hook per fence" 2 !calls

let test_fence_hook_sees_pending () =
  let dev = mk () in
  let seen = ref (-1) in
  Device.set_fence_hook dev
    (Some (fun d -> seen := Device.pending_line_count d));
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  Alcotest.(check int) "pending visible at fence entry" 1 !seen

let test_nt_store () =
  let dev = mk () in
  Device.store_nt dev ~off:0 "hello";
  Alcotest.(check bool) "not yet durable" false
    (Bytes.sub_string (Device.image_durable dev) 0 5 = "hello");
  Device.fence dev;
  Alcotest.(check string) "durable after fence" "hello"
    (Bytes.sub_string (Device.image_durable dev) 0 5)

let test_image_latest_includes_pending () =
  let dev = mk () in
  Device.store dev ~off:0 "zz";
  let img = Device.image_latest dev in
  Alcotest.(check string) "latest image has pending store" "zz"
    (Bytes.sub_string img 0 2)

let test_bounds_checked () =
  let dev = mk ~size:128 () in
  Alcotest.(check bool) "oob store raises" true
    (try
       Device.store dev ~off:120 "123456789";
       false
     with Invalid_argument _ -> true)

let test_crash_image_count_quiescent () =
  let dev = mk () in
  Alcotest.(check int) "quiescent: one image" 1 (Device.crash_image_count dev);
  Alcotest.(check int) "one image returned" 1
    (List.length (Device.crash_images dev))

let test_sampling_cap () =
  let dev = mk ~size:8192 () in
  (* 64 independent words -> 2^64 images; sampling must cap. *)
  for i = 0 to 63 do
    Device.store_u64 dev (i * 64) (i + 1)
  done;
  let images = Device.crash_images ~max_images:10 dev in
  Alcotest.(check int) "capped" 10 (List.length images);
  (* extremes present: all-zero and all-applied *)
  let zero = Bytes.make 8192 '\000' in
  Alcotest.(check bool) "durable extreme included" true
    (List.exists (Bytes.equal zero) images);
  Alcotest.(check bool) "latest extreme included" true
    (List.exists (Bytes.equal (Device.image_latest dev)) images)

let test_sampling_distinct () =
  let dev = mk ~size:1024 () in
  (* 7 independent words -> 128 images > max_images=8: the sampler must
     top up to 8 *distinct* states (RNG collisions with each other or
     with the two extremes must not shrink coverage). *)
  for i = 0 to 6 do
    Device.store_u64 dev (i * 64) (i + 1)
  done;
  let images = Device.crash_images ~max_images:8 dev in
  Alcotest.(check int) "exactly max_images" 8 (List.length images);
  let distinct =
    List.sort_uniq compare (List.map Bytes.to_string images) |> List.length
  in
  Alcotest.(check int) "all distinct" 8 distinct

let test_enumeration_sorted () =
  let dev = mk () in
  (* Stores issued high-line-first: enumeration must still be by
     ascending line index (first odometer coordinate = lowest line), not
     by pending-table insertion/hash order. The odometer emits results
     newest-combination-first, so with one record per line the result is
     [(both); (high only); (low only); (none)]. *)
  Device.store_u64 dev 512 0xBB;
  Device.store_u64 dev 64 0xAA;
  let images = Device.crash_images dev in
  Alcotest.(check int) "2x2 states" 4 (List.length images);
  let v img off = Int64.to_int (Bytes.get_int64_le img off) in
  let nth n = List.nth images n in
  Alcotest.(check (pair int int)) "images[1] = high line only" (0, 0xBB)
    (v (nth 1) 64, v (nth 1) 512);
  Alcotest.(check (pair int int)) "images[2] = low line only" (0xAA, 0)
    (v (nth 2) 64, v (nth 2) 512)

(* Device.reset — the pool contract: a device dirtied by one workload
   and then template-reset must be indistinguishable from a fresh
   [of_image] of the same template — same stats, clock, durable hash and
   crash-state enumeration — when the same op sequence runs on both. *)
let test_reset_indistinguishable_from_fresh () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let ops dev =
    Device.store_u64 dev 128 0xAB;
    Device.persist dev ~off:128 ~len:8;
    Device.store dev ~off:256 "pending";
    (* left pending: both devices must enumerate the same crash states *)
    Device.store_u64 dev 320 0xCD
  in
  let pooled = Device.of_image ~latency:Latency.optane template in
  Device.store pooled ~off:512 "garbage";
  Device.persist pooled ~off:512 ~len:7;
  Device.store pooled ~off:1024 "dangling";
  Device.charge pooled 999;
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  ops pooled;
  let fresh = Device.of_image ~latency:Latency.optane template in
  ops fresh;
  Alcotest.(check bool) "stats equal" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check int) "clock equal" (Device.now_ns fresh)
    (Device.now_ns pooled);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash pooled = Device.durable_hash fresh);
  let imgs d = List.map Bytes.to_string (Device.crash_images d) in
  Alcotest.(check (list string)) "same crash-state enumeration" (imgs fresh)
    (imgs pooled)

(* The fence/flush odometer after [reset] must match [of_image]'s: both
   start from a zeroed stats record, and the reset itself performs no
   stores, flushes or fences — pinned explicitly (zero, not "equal to
   something") because the fuzzer's per-iteration accounting subtracts a
   post-mkfs baseline, and any skew here would silently bias every
   pooled-device report. The same contract covers observability: reset
   must drop an attached tracer and metrics registry so a pooled device
   never leaks one iteration's observation into the next. *)
let test_reset_stats_pinned_and_observers_dropped () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let pooled = Device.of_image ~latency:Latency.optane template in
  let r = Obs.Recorder.create () and m = Obs.Metrics.create () in
  Device.set_tracer pooled (Some r);
  Device.set_metrics pooled (Some m);
  Device.store_u64 pooled 128 0xAB;
  Device.persist pooled ~off:128 ~len:8;
  let st = Device.stats pooled in
  Alcotest.(check bool) "workload counted" true
    (st.Pmem.Stats.fences > 0 && st.Pmem.Stats.flushes > 0);
  let traced = Obs.Recorder.length r in
  Alcotest.(check bool) "workload traced" true (traced > 0);
  Alcotest.(check bool) "workload metered" true
    (Obs.Metrics.counter m "pm.fences" > 0);
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  let st = Device.stats pooled in
  Alcotest.(check int) "stores zeroed" 0 st.Pmem.Stats.stores;
  Alcotest.(check int) "flushes zeroed" 0 st.Pmem.Stats.flushes;
  Alcotest.(check int) "fences zeroed" 0 st.Pmem.Stats.fences;
  Alcotest.(check int) "lines_drained zeroed" 0 st.Pmem.Stats.lines_drained;
  let fresh = Device.of_image ~latency:Latency.optane template in
  Alcotest.(check bool) "reset stats = of_image stats" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check bool) "tracer dropped" true (Device.tracer pooled = None);
  Alcotest.(check bool) "metrics dropped" true (Device.metrics pooled = None);
  (* post-reset traffic must not reach the detached observers *)
  Device.store_u64 pooled 128 0xCD;
  Device.persist pooled ~off:128 ~len:8;
  Alcotest.(check int) "no events after reset" traced (Obs.Recorder.length r);
  (* and an identical workload on both counts identically from there *)
  Device.store_u64 fresh 128 0xCD;
  Device.persist fresh ~off:128 ~len:8;
  Alcotest.(check bool) "stats equal after same workload" true
    (Device.stats pooled = Device.stats fresh)

(* {1 Sparse backing}

   A lazily-backed device must be observably identical to a dense one —
   same reads, durable hashes, crash-state enumeration and stats for the
   same store traffic — while backing only the chunks actually touched.
   The one sanctioned divergence: [zero] over never-touched chunks emits
   no line records at all on a sparse device (they are provably zero
   durably with nothing in flight), so drain counters may come out lower
   there; durable content still matches. *)

let test_sparse_matches_dense () =
  let ops dev =
    Device.store dev ~off:100 "hello";
    Device.persist dev ~off:100 ~len:5;
    Device.store_u64 dev 8192 0xAB;
    Device.store dev ~off:12300 "pending"
  in
  let sparse = Device.create ~sparse:true ~size:16384 () in
  let dense = Device.create ~sparse:false ~size:16384 () in
  Alcotest.(check (pair bool bool)) "representations as forced" (true, false)
    (Device.is_sparse sparse, Device.is_sparse dense);
  ops sparse;
  ops dense;
  Alcotest.(check string) "reads equal" (read_str dense 100 5)
    (read_str sparse 100 5);
  Alcotest.(check bool) "stats equal" true
    (Device.stats sparse = Device.stats dense);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash sparse = Device.durable_hash dense);
  let imgs d = List.map Bytes.to_string (Device.crash_images d) in
  Alcotest.(check (list string)) "same crash-state enumeration" (imgs dense)
    (imgs sparse);
  Alcotest.(check bytes_eq) "durable images equal"
    (Device.image_durable dense)
    (Device.image_durable sparse)

let test_of_spans_matches_of_image () =
  let size = 16384 in
  let spans = [ (100, "hello"); (8192, "world") ] in
  let img = Bytes.make size '\000' in
  List.iter
    (fun (off, s) -> Bytes.blit_string s 0 img off (String.length s))
    spans;
  let a = Device.of_spans ~size spans in
  let b = Device.of_image img in
  Alcotest.(check bytes_eq) "durable images equal" (Device.image_durable b)
    (Device.image_durable a);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash a = Device.durable_hash b);
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent a)

let test_sparse_default_by_size () =
  let small = Device.create ~size:4096 () in
  Alcotest.(check bool) "small defaults dense" false (Device.is_sparse small);
  let big = Device.create ~size:(Device.sparse_threshold + 4096) () in
  Alcotest.(check bool) "above threshold defaults sparse" true
    (Device.is_sparse big)

let test_backed_spans () =
  let dense = Device.create ~sparse:false ~size:16384 () in
  Alcotest.(check (list (pair int int))) "dense: one full span" [ (0, 16384) ]
    (Device.backed_spans dense);
  let sparse = Device.create ~sparse:true ~size:16384 () in
  Alcotest.(check (list (pair int int))) "untouched sparse: no spans" []
    (Device.backed_spans sparse);
  Device.store sparse ~off:5000 "x";
  Alcotest.(check (list (pair int int))) "store backs its chunk"
    [ (4096, 4096) ]
    (Device.backed_spans sparse);
  Device.store sparse ~off:0 "y";
  Alcotest.(check (list (pair int int))) "adjacent chunks merge, ascending"
    [ (0, 8192) ]
    (Device.backed_spans sparse)

let test_sparse_zero_untouched_is_free () =
  let dev = Device.create ~sparse:true ~size:65536 () in
  Device.zero dev ~off:0 ~len:65536;
  (* no chunk was ever backed: the zero leaves nothing in flight and
     allocates nothing *)
  Alcotest.(check bool) "quiescent" true (Device.is_quiescent dev);
  Alcotest.(check int) "nothing resident" 0 (Device.resident_bytes dev);
  (* a touched chunk still gets its records: the zero must overwrite *)
  Device.store dev ~off:128 "dirty";
  Device.persist dev ~off:128 ~len:5;
  Device.zero dev ~off:0 ~len:65536;
  Device.fence dev;
  Alcotest.(check string) "touched chunk really zeroed" "\000\000\000\000\000"
    (Bytes.sub_string (Device.image_durable dev) 128 5)

let test_sparse_resident_tracks_touch () =
  let dev = Device.create ~sparse:true ~size:(1024 * 1024) () in
  Alcotest.(check int) "fresh: zero resident" 0 (Device.resident_bytes dev);
  Device.store dev ~off:0 "a";
  Device.persist dev ~off:0 ~len:1;
  let r1 = Device.resident_bytes dev in
  Alcotest.(check bool) "one touched chunk resident" true
    (r1 > 0 && r1 <= 4 * Sbuf.chunk_bytes);
  Device.store dev ~off:(512 * 1024) "b";
  Device.persist dev ~off:(512 * 1024) ~len:1;
  let r2 = Device.resident_bytes dev in
  Alcotest.(check bool) "residency grows with touch, not size" true
    (r2 > r1 && r2 < 1024 * 1024 / 4)

(* The pool contract extended to sparse backing: a sparse device dirtied
   and template-reset must be indistinguishable from a fresh dense
   [of_image] of the same template under the same subsequent ops. *)
let test_sparse_reset_indistinguishable_from_fresh () =
  let template =
    let d = Device.create ~size:4096 () in
    Device.store d ~off:0 "template";
    Device.persist d ~off:0 ~len:8;
    Device.image_durable d
  in
  let ops dev =
    Device.store_u64 dev 128 0xAB;
    Device.persist dev ~off:128 ~len:8;
    Device.store dev ~off:256 "pending";
    Device.store_u64 dev 320 0xCD
  in
  let pooled = Device.create ~latency:Latency.optane ~sparse:true ~size:4096 () in
  Device.store pooled ~off:512 "garbage";
  Device.persist pooled ~off:512 ~len:7;
  Device.store pooled ~off:1024 "dangling";
  Device.charge pooled 999;
  let hash = Device.image_hash_state template in
  Device.reset ~hash pooled ~image:template;
  ops pooled;
  let fresh = Device.of_image ~latency:Latency.optane template in
  ops fresh;
  Alcotest.(check bool) "still sparse after reset" true
    (Device.is_sparse pooled);
  Alcotest.(check bool) "stats equal" true
    (Device.stats pooled = Device.stats fresh);
  Alcotest.(check int) "clock equal" (Device.now_ns fresh)
    (Device.now_ns pooled);
  Alcotest.(check bool) "durable hash equal" true
    (Device.durable_hash pooled = Device.durable_hash fresh);
  let imgs d = List.map Bytes.to_string (Device.crash_images d) in
  Alcotest.(check (list string)) "same crash-state enumeration" (imgs fresh)
    (imgs pooled)

(* [reset] must forget lines flushed before it: the next fence finds
   nothing in flight and the durable image stays the template. *)
let test_reset_clears_inflight () =
  let template = Bytes.make 4096 't' in
  let dev = Device.of_image template in
  Device.store dev ~off:0 "garbage";
  Device.store dev ~off:640 "more";
  Device.flush dev ~off:0 ~len:4096;
  Device.reset dev ~image:template;
  Device.fence dev;
  Alcotest.(check int) "nothing drained" 0 (Device.stats dev).lines_drained;
  Alcotest.(check bytes_eq) "durable = template" template
    (Device.image_durable dev)

(* Property tests *)

let prop_persist_all_makes_durable =
  QCheck.Test.make ~count:100 ~name:"random ops then full persist: durable = latest"
    QCheck.(list (pair (int_bound 1000) (string_of_size Gen.(1 -- 16))))
    (fun ops ->
      let dev = mk ~size:2048 () in
      List.iter
        (fun (off, data) ->
          let off = off mod (2048 - 16) in
          Device.store dev ~off data)
        ops;
      Device.persist dev ~off:0 ~len:2048;
      Bytes.equal (Device.image_durable dev) (Device.image_latest dev)
      && Device.is_quiescent dev)

let prop_crash_images_bounded_by_latest_and_durable =
  QCheck.Test.make ~count:50
    ~name:"every crash image word is some store prefix of that word"
    QCheck.(list (pair (int_bound 15) small_int))
    (fun ops ->
      let dev = mk ~size:256 () in
      (* Record per-word history of values. *)
      let history = Array.make 32 [ 0 ] in
      List.iter
        (fun (word, v) ->
          let v = abs v in
          Device.store_u64 dev (word * 8) v;
          history.(word) <- v :: history.(word))
        ops;
      let images = Device.crash_images ~max_images:128 dev in
      List.for_all
        (fun img ->
          let ok = ref true in
          for w = 0 to 31 do
            let v = Int64.to_int (Bytes.get_int64_le img (w * 8)) in
            if not (List.mem v history.(w)) then ok := false
          done;
          !ok)
        images)

let prop_sparse_dense_equivalent =
  QCheck.Test.make ~count:100
    ~name:"sparse and dense devices agree under random store traffic"
    QCheck.(list (pair (int_bound 2000) (string_of_size Gen.(1 -- 16))))
    (fun ops ->
      let run sparse =
        let dev = Device.create ~sparse ~size:16384 () in
        List.iter
          (fun (off, data) ->
            let off = off mod (16384 - 16) in
            Device.store dev ~off data)
          ops;
        Device.persist dev ~off:0 ~len:16384;
        (Device.image_durable dev, Device.durable_hash dev, Device.stats dev)
      in
      run true = run false)

let prop_store_read_roundtrip =
  QCheck.Test.make ~count:200 ~name:"store/read roundtrip"
    QCheck.(pair (int_bound 1000) (string_of_size Gen.(1 -- 64)))
    (fun (off, data) ->
      let dev = mk ~size:2048 () in
      let off = off mod (2048 - 64) in
      Device.store dev ~off data;
      Bytes.to_string (Device.read dev ~off ~len:(String.length data)) = data)

(* A fence must cost, and do, the same whatever the line table's
   history: a device whose table was grown by a 16 MiB zero + fence
   agrees with a fresh one on every observable of a random op
   sequence. *)
type dev_op =
  | Op_store of int * string
  | Op_u64 of int * int
  | Op_nt of int * string
  | Op_zero of int * int
  | Op_flush of int * int
  | Op_fence

let gen_dev_op =
  let open QCheck.Gen in
  let off = int_bound 4000 and data = string_size (1 -- 24) in
  frequency
    [
      (4, map2 (fun o d -> Op_store (o, d)) off data);
      (3, map2 (fun w v -> Op_u64 (w, v)) (int_bound 500) nat);
      (1, map2 (fun o d -> Op_nt (o, d)) off data);
      (1, map2 (fun o l -> Op_zero (o, l)) off (int_bound 200));
      (3, map2 (fun o l -> Op_flush (o, l)) off (int_bound 300));
      (2, return Op_fence);
    ]

let pp_dev_op = function
  | Op_store (o, d) -> Printf.sprintf "store %d %S" o d
  | Op_u64 (w, v) -> Printf.sprintf "u64 %d %d" (w * 8) v
  | Op_nt (o, d) -> Printf.sprintf "nt %d %S" o d
  | Op_zero (o, l) -> Printf.sprintf "zero %d %d" o l
  | Op_flush (o, l) -> Printf.sprintf "flush %d %d" o l
  | Op_fence -> "fence"

let prop_fence_history_independent =
  let size = 16 * 1024 * 1024 in
  QCheck.Test.make ~count:10
    ~name:"fence outcome independent of line-table history"
    QCheck.(
      make ~print:(Print.list pp_dev_op) Gen.(list_size (1 -- 60) gen_dev_op))
    (fun ops ->
      let run grown =
        let dev =
          Device.create ~latency:Latency.optane ~sparse:false ~size ()
        in
        if grown then begin
          Device.zero dev ~off:0 ~len:size;
          Device.fence dev;
          Pmem.Stats.reset (Device.stats dev)
        end;
        let t0 = Device.now_ns dev in
        List.iter
          (function
            | Op_store (off, d) -> Device.store dev ~off d
            | Op_u64 (w, v) -> Device.store_u64 dev (w * 8) v
            | Op_nt (off, d) -> Device.store_nt dev ~off d
            | Op_zero (off, len) -> Device.zero dev ~off ~len
            | Op_flush (off, len) -> Device.flush dev ~off ~len
            | Op_fence -> Device.fence dev)
          ops;
        ( Device.image_durable dev,
          Device.pending_line_count dev,
          Pmem.Stats.copy (Device.stats dev),
          Device.now_ns dev - t0 )
      in
      run false = run true)

let unit_tests =
  [
    ("store visible", `Quick, test_store_visible);
    ("store not durable", `Quick, test_store_not_durable);
    ("flush alone not durable", `Quick, test_flush_alone_not_durable);
    ("fence alone not durable", `Quick, test_fence_alone_not_durable);
    ("persist durable", `Quick, test_persist_durable);
    ("unflushed line survives fence", `Quick, test_store_after_flush_stays_pending);
    ("same line partial flush", `Quick, test_same_line_partial_flush);
    ("double flush drains once", `Quick, test_double_flush_drains_once);
    ("u64 roundtrip", `Quick, test_u64_roundtrip);
    ("u64 atomic in crash", `Quick, test_u64_atomic_in_crash);
    ("unaligned u64 rejected", `Quick, test_unaligned_u64_rejected);
    ("large store can tear", `Quick, test_large_store_can_tear);
    ("cross-line reorder", `Quick, test_cross_line_independent);
    ("same-word ordered", `Quick, test_same_word_ordered);
    ("of_image quiescent", `Quick, test_of_image_quiescent);
    ("zero latency clock", `Quick, test_zero_latency_clock);
    ("optane latency clock", `Quick, test_optane_latency_clock);
    ("charge", `Quick, test_charge);
    ("fence hook runs", `Quick, test_fence_hook_runs);
    ("fence hook sees pending", `Quick, test_fence_hook_sees_pending);
    ("nt store", `Quick, test_nt_store);
    ("image_latest includes pending", `Quick, test_image_latest_includes_pending);
    ("bounds checked", `Quick, test_bounds_checked);
    ("quiescent crash count", `Quick, test_crash_image_count_quiescent);
    ("sampling cap", `Quick, test_sampling_cap);
    ("sampling distinct", `Quick, test_sampling_distinct);
    ("enumeration sorted by line", `Quick, test_enumeration_sorted);
    ( "reset indistinguishable from fresh",
      `Quick,
      test_reset_indistinguishable_from_fresh );
    ( "reset stats pinned, observers dropped",
      `Quick,
      test_reset_stats_pinned_and_observers_dropped );
    ("reset clears in-flight lines", `Quick, test_reset_clears_inflight);
    ("sparse matches dense", `Quick, test_sparse_matches_dense);
    ("of_spans matches of_image", `Quick, test_of_spans_matches_of_image);
    ("sparse default by size", `Quick, test_sparse_default_by_size);
    ("backed spans", `Quick, test_backed_spans);
    ( "sparse zero of untouched space is free",
      `Quick,
      test_sparse_zero_untouched_is_free );
    ( "sparse residency tracks touch",
      `Quick,
      test_sparse_resident_tracks_touch );
    ( "sparse reset indistinguishable from fresh",
      `Quick,
      test_sparse_reset_indistinguishable_from_fresh );
  ]

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_persist_all_makes_durable;
      prop_crash_images_bounded_by_latest_and_durable;
      prop_sparse_dense_equivalent;
      prop_store_read_roundtrip;
      prop_fence_history_independent;
    ]

let () =
  ignore bytes_eq;
  Alcotest.run "pmem" [ ("device", unit_tests); ("device-props", prop_tests) ]
