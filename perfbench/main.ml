(* perfbench: the repository's benchmark (see BENCHMARK.json).

     main.exe --workload <fileserver|webserver|crashcheck|serve|all>
              --seed <n> --seconds <s> --trace <0|1>

   Inputs come from the seed alone. An untraced run measures for
   [--seconds] and reports the end-to-end metrics; a traced run splits
   the same workload by layer. The last line is the JSON result. *)

let workloads =
  [
    ("fileserver", fun ~seed ~seconds ~trace ->
        Driver.run (module Load_fileserver) ~seed ~seconds ~trace);
    ("webserver", fun ~seed ~seconds ~trace ->
        Driver.run (module Load_webserver) ~seed ~seconds ~trace);
    ("crashcheck", Load_crashcheck.run);
    ("serve", fun ~seed ~seconds ~trace ->
        Driver.run (module Load_serve) ~seed ~seconds ~trace);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <fileserver|webserver|crashcheck|serve|all> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
      let chosen =
        if w = "all" then workloads
        else List.filter (fun (n, _) -> n = w) workloads
      in
      if chosen = [] then usage ();
      let ok =
        List.for_all
          (fun (name, run) ->
            let r = run ~seed ~seconds ~trace in
            Output.finish r ~workload:name ~trace)
          chosen
      in
      exit (if ok || w <> "all" then 0 else 2)
  | _ -> usage ()
