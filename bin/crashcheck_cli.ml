(* crashcheck: the Chipmunk-substitute crash-consistency tester.

     crashcheck --systematic            -- the full seq-2 matrix
     crashcheck --buggy                 -- reinjected bugs (must be caught)

   Both legs may be given together; every requested leg runs, and the
   exit code is the combined verdict (0 = clean and every bug caught).
   Random workloads are the job of fuzz.exe (seeds, -j, shrinking). *)

open Cmdliner
module W = Crashcheck.Workload
module H = Crashcheck.Harness

(* Each reinjected bug with its per-fence image budget. The snapshot
   mutant's torn window is one specific line-prefix combination, so it
   needs the exhaustive budget the fuzzer's snapshot leg uses. *)
let buggy_cases images =
  [
    ("buggy-create", images, W.[ Mkdir "/d"; Buggy_create "/b" ]);
    ("buggy-unlink", images, W.[ Create "/a"; Write ("/a", 0, "xy"); Buggy_unlink "/a" ]);
    ("buggy-write", images, W.[ Create "/a"; Buggy_write ("/a", String.make 256 'z') ]);
    ("buggy-snap", 64, W.[ Create "/a"; Buggy_snap "torn-snapshot-commit-ordering" ]);
  ]

let run systematic images buggy =
  let ok = ref true in
  if buggy then
    List.iter
      (fun (name, max_images_per_fence, w) ->
        let r = H.run_workload ~max_images_per_fence w in
        let caught = r.H.violations <> [] in
        if not caught then ok := false;
        Printf.printf "%-14s %4d crash states -> %s\n%!" name r.H.crash_states
          (if caught then "caught" else "MISSED"))
      (buggy_cases images);
  if systematic then begin
    let ws = W.systematic_pairs () in
    Printf.printf "running %d systematic workloads...\n%!" (List.length ws);
    let r = H.run_suite ~max_images_per_fence:images ws in
    Format.printf "%a@." H.pp_report r;
    if r.H.violations <> [] then ok := false
  end;
  if not (systematic || buggy) then
    prerr_endline "crashcheck: nothing to do (pass --systematic and/or --buggy)";
  exit (if !ok then 0 else 2)

let () =
  let systematic =
    Arg.(value & flag & info [ "systematic" ] ~doc:"Run the seq-2 matrix")
  in
  let images =
    Arg.(value & opt int 12 & info [ "images" ] ~doc:"Max crash images per fence")
  in
  let buggy =
    Arg.(value & flag & info [ "buggy" ] ~doc:"Check the reinjected bugs")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "crashcheck" ~doc:"Crash-consistency testing of SquirrelFS")
          Term.(const run $ systematic $ images $ buggy)))
