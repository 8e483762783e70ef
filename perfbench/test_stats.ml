(* The benchmark's own statistics: percentiles are reported only with
   ten samples beyond them, quantiles interpolate between ranks, and a
   span's self time excludes what its children cover. *)

let feq = Alcotest.float 1e-9
let opt = Alcotest.(option (float 1e-9))
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_beyond () =
  Alcotest.(check int) "p99 of 1000" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check int) "p99 of 999" 9 (Stats.beyond ~n:999 0.99);
  Alcotest.(check int) "p50 of 20" 10 (Stats.beyond ~n:20 0.5);
  Alcotest.(check bool) "p50 of 19" false (Stats.reportable ~n:19 0.5);
  Alcotest.(check bool) "p99 of 1000" true (Stats.reportable ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 999" false (Stats.reportable ~n:999 0.99);
  Alcotest.(check bool) "nothing of 0" false (Stats.reportable ~n:0 0.5)

let test_percentile () =
  Alcotest.check opt "p99 withheld below 1000" None (Stats.percentile (ramp 999) 0.99);
  Alcotest.check opt "p99 of 1..1000" (Some 990.01) (Stats.percentile (ramp 1000) 0.99);
  Alcotest.check opt "p50 of 1..20" (Some 10.5) (Stats.percentile (ramp 20) 0.5);
  (* order of the input does not matter *)
  let rev = Array.of_list (List.rev (Array.to_list (ramp 20))) in
  Alcotest.check opt "p50 of 20..1" (Some 10.5) (Stats.percentile rev 0.5)

let test_quantile () =
  let a = [| 1.; 2.; 4.; 8. |] in
  Alcotest.check feq "min" 1. (Stats.quantile_sorted a 0.);
  Alcotest.check feq "max" 8. (Stats.quantile_sorted a 1.);
  Alcotest.check feq "median" 3. (Stats.quantile_sorted a 0.5);
  Alcotest.check feq "single" 5. (Stats.median [| 5. |])

let test_summary () =
  let s = Stats.summarize (ramp 1500) in
  Alcotest.(check int) "count" 1500 s.Stats.n;
  Alcotest.check opt "p50" (Some 750.5) s.Stats.p50;
  Alcotest.check opt "p99" (Some 1485.01) s.Stats.p99;
  Alcotest.check feq "mean" 750.5 s.Stats.avg;
  let small = Stats.summarize (ramp 15) in
  Alcotest.check opt "no p50 from 15" None small.Stats.p50;
  Alcotest.check opt "no p99 from 15" None small.Stats.p99

let test_samples () =
  let s = Stats.Samples.create () in
  for i = 1 to 5000 do
    Stats.Samples.add s (float_of_int i)
  done;
  let a = Stats.Samples.to_array s in
  Alcotest.(check int) "length" 5000 (Array.length a);
  Alcotest.check feq "last" 5000. a.(4999)

(* A fake clock: each reading advances by the next step. *)
let clock steps =
  let t = ref 0 and rest = ref steps in
  fun () ->
    (match !rest with
    | d :: tl ->
        t := !t + d;
        rest := tl
    | [] -> ());
    !t

let test_self_time () =
  (* parent [0,100] with children [10,30] and [40,70]: self 50 *)
  let sp = Spans.create ~clock:(clock [ 0; 10; 20; 10; 30; 30 ]) () in
  let p = Spans.enter sp ~req:1 "parent" in
  let a = Spans.enter sp ~req:1 "child" in
  Spans.leave sp a;
  let b = Spans.enter sp ~req:1 "child" in
  Spans.leave sp b;
  Spans.leave sp p;
  let self = Spans.self_times sp in
  Alcotest.(check int) "parent self" 50 self.(p);
  Alcotest.(check int) "child self" 20 self.(a);
  Alcotest.(check int) "child total self" 50 (Spans.total_self sp "child");
  Alcotest.(check (list (triple string int int)))
    "totals by name" [ ("child", 2, 50); ("parent", 1, 100) ]
    (List.map (fun (n, c, d, _) -> (n, c, d)) (Spans.totals sp))

let test_nesting () =
  let sp = Spans.create ~clock:(clock [ 1; 1; 1; 1; 1; 1 ]) () in
  let outer = Spans.enter sp ~req:7 "outer" in
  let mid = Spans.enter sp ~req:7 "mid" in
  let inner = Spans.enter sp ~req:7 "inner" in
  Spans.leave sp inner;
  Spans.leave sp mid;
  Spans.leave sp outer;
  let self = Spans.self_times sp in
  (* grandchildren count against their own parent only *)
  Alcotest.(check int) "outer self" 2 self.(outer);
  Alcotest.(check int) "mid self" 2 self.(mid);
  Alcotest.(check int) "inner self" 1 self.(inner);
  Alcotest.check_raises "leave out of order" (Invalid_argument "Spans.leave: not the innermost open span")
    (fun () ->
      let x = Spans.enter sp ~req:0 "x" in
      let _y = Spans.enter sp ~req:0 "y" in
      Spans.leave sp x)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond;
          Alcotest.test_case "percentile withheld when thin" `Quick test_percentile;
          Alcotest.test_case "interpolated quantiles" `Quick test_quantile;
          Alcotest.test_case "summary carries its count" `Quick test_summary;
          Alcotest.test_case "growable samples" `Quick test_samples;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time minus children" `Quick test_self_time;
          Alcotest.test_case "nested self times" `Quick test_nesting;
        ] );
    ]
