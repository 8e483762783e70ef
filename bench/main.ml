(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) against the four file systems. Times are simulated
   nanoseconds from the PM device model (deterministic, machine-
   independent); the Bechamel section additionally wall-clock-benchmarks
   one driver per table/figure.

   Usage: main.exe [section ...]
   Sections: fig5a fig5b fig5c fig5d git tab2 tab3 model crash bugs mem
             ablate bechamel all (default: all) *)

module Device = Pmem.Device
module Latency = Pmem.Latency
module W = Workloads

let fss : (module Vfs.Fs.S) list =
  [
    (module Baselines.Ext4_dax_sim);
    (module Baselines.Nova_sim);
    (module Baselines.Winefs_sim);
    (module Squirrelfs);
  ]

let device ?(mb = 32) () =
  Device.create ~latency:Latency.optane ~size:(mb * 1024 * 1024) ()

let section title = Printf.printf "\n==== %s ====\n%!" title

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Vfs.Errno.to_string e)

(* {1 Figure 5(a): microbenchmark latency} *)

let fig5a () =
  section "Figure 5(a): operation latency (us, simulated; min/max over trials)";
  let results =
    List.map
      (fun (module F : Vfs.Fs.S) ->
        (F.flavor, W.Micro.run (module F) ~device ~trials:5 ~reps:24 ()))
      fss
  in
  Printf.printf "%-12s" "op";
  List.iter (fun (name, _) -> Printf.printf " %22s" name) results;
  Printf.printf "\n";
  List.iter
    (fun op ->
      Printf.printf "%-12s" op;
      List.iter
        (fun (_, rs) ->
          let r = List.find (fun r -> r.W.Micro.op = op) rs in
          Printf.printf "  %6.2f [%5.2f-%6.2f]" (r.W.Micro.avg_ns /. 1000.)
            (float_of_int r.W.Micro.min_ns /. 1000.)
            (float_of_int r.W.Micro.max_ns /. 1000.))
        results;
      Printf.printf "\n")
    W.Micro.ops;
  Printf.printf
    "(expected shape: lowest latency is WineFS or SquirrelFS on every op;\n\
    \ Ext4-DAX worst on allocating ops; NOVA high on mkdir/rename)\n"

(* {1 Relative-throughput tables} *)

let relative_table title rows =
  (* rows : (workload, (fs, kops) list) list *)
  section title;
  let fs_names =
    match rows with (_, cells) :: _ -> List.map fst cells | [] -> []
  in
  Printf.printf "%-14s" "workload";
  List.iter (fun n -> Printf.printf " %10s" n) fs_names;
  Printf.printf "   (relative to ext4-dax)\n";
  List.iter
    (fun (w, cells) ->
      Printf.printf "%-14s" w;
      List.iter (fun (_, k) -> Printf.printf " %10.1f" k) cells;
      (match List.assoc_opt "ext4-dax" cells with
      | Some base when base > 0. ->
          Printf.printf "   ";
          List.iter (fun (_, k) -> Printf.printf " %5.2fx" (k /. base)) cells
      | Some _ | None -> ());
      Printf.printf "\n%!")
    rows

let fig5b () =
  let rows =
    List.map
      (fun p ->
        ( W.Filebench.name p,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r =
                W.Filebench.run (module F) ~device ~nfiles:120 ~ops:2500 p
              in
              (F.flavor, r.W.Filebench.kops_per_sec))
            fss ))
      W.Filebench.all
  in
  relative_table "Figure 5(b): Filebench throughput (kops/s, simulated)" rows;
  Printf.printf
    "(expected shape: SquirrelFS best on fileserver/varmail; all systems\n\
    \ comparable on the read-heavy webserver/webproxy)\n"

let fig5c () =
  let rows =
    List.map
      (fun w ->
        ( W.Ycsb.name w,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r =
                W.Ycsb.run (module F) ~device ~records:1500 ~operations:1500 w
              in
              (F.flavor, r.W.Ycsb.kops_per_sec))
            fss ))
      W.Ycsb.all
  in
  relative_table "Figure 5(c): YCSB over the LSM key-value store (kops/s)"
    rows;
  Printf.printf
    "(expected shape: SquirrelFS best on insert-heavy Loads A/E and on\n\
    \ Runs A/F; reads B/C/D close. Measured deviation: Ext4-DAX is worst,\n\
    \ not best, on the scan-heavy Run E; see EXPERIMENTS.md, Figure 5(c))\n"

let fig5d () =
  let rows =
    List.map
      (fun w ->
        ( w,
          List.map
            (fun (module F : Vfs.Fs.S) ->
              let r = W.Lmdb_sim.run (module F) ~device ~keys:2000 w in
              (F.flavor, r.W.Lmdb_sim.kops_per_sec))
            fss ))
      W.Lmdb_sim.workloads
  in
  relative_table "Figure 5(d): memory-mapped COW B-tree (LMDB; kops/s)" rows;
  Printf.printf
    "(expected shape: all four file systems close together: mmap updates\n\
    \ bypass most of the file system)\n"

(* {1 git checkout} *)

let git () =
  section "git checkout (sec 5.4): synthetic kernel-tree version switches";
  let results =
    List.map
      (fun (module F : Vfs.Fs.S) ->
        (F.flavor, W.Gitbench.run (module F) ~device ~files:300 ~versions:4 ()))
      fss
  in
  Printf.printf "%-12s %14s %14s\n" "fs" "sim ms total" "ms/checkout";
  List.iter
    (fun (name, r) ->
      let ms = r.W.Gitbench.sim_seconds *. 1000. in
      Printf.printf "%-12s %14.2f %14.2f\n" name ms
        (ms /. float_of_int r.W.Gitbench.checkouts))
    results;
  let times = List.map (fun (_, r) -> r.W.Gitbench.sim_seconds) results in
  let worst = List.fold_left max 0. times
  and best = List.fold_left min infinity times in
  Printf.printf "(paper: all within 8%%; measured spread: %.1f%%)\n"
    ((worst -. best) /. best *. 100.)

(* {1 Table 2: mount time} *)

let tab2 () =
  section "Table 2: SquirrelFS mount time (ms, simulated; 64 MiB device)";
  let dev = device ~mb:64 () in
  let t0 = Device.now_ns dev in
  Squirrelfs.mkfs dev;
  let mkfs_ms = float_of_int (Device.now_ns dev - t0) /. 1e6 in
  let time_mount f =
    let t0 = Device.now_ns dev in
    let fs = ok (f dev) in
    let ms = float_of_int (Device.now_ns dev - t0) /. 1e6 in
    (fs, ms)
  in
  let fs, empty_ms = time_mount Squirrelfs.Mount.mount in
  Squirrelfs.unmount fs;
  let fs, rec_empty_ms = time_mount Squirrelfs.Mount.mount_recover in
  (* fill to 100% inode or page utilization *)
  let files = ref 0 in
  let data = String.make 12288 'f' in
  (try
     let dir = ref 0 in
     ok (Squirrelfs.mkdir fs "/d0");
     while true do
       if !files mod 500 = 499 then begin
         incr dir;
         ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" !dir))
       end;
       let p = Printf.sprintf "/d%d/f%d" !dir !files in
       (match Squirrelfs.create fs p with
       | Ok () -> ()
       | Error _ -> raise Exit);
       (match Squirrelfs.write fs p ~off:0 data with
       | Ok _ -> ()
       | Error _ -> raise Exit);
       incr files
     done
   with Exit -> ());
  Squirrelfs.unmount fs;
  let fs, full_ms = time_mount Squirrelfs.Mount.mount in
  Squirrelfs.unmount fs;
  let _, rec_full_ms = time_mount Squirrelfs.Mount.mount_recover in
  Printf.printf "%-22s %10s\n" "state" "mount ms";
  Printf.printf "%-22s %10.2f\n" "mkfs" mkfs_ms;
  Printf.printf "%-22s %10.2f\n" "normal mount, empty" empty_ms;
  Printf.printf "%-22s %10.2f   (%d files)\n" "normal mount, full" full_ms
    !files;
  Printf.printf "%-22s %10.2f\n" "recovery mount, empty" rec_empty_ms;
  Printf.printf "%-22s %10.2f\n" "recovery mount, full" rec_full_ms;
  Printf.printf
    "(paper shape: full >> empty; recovery > normal at the same utilization)\n";
  let checks =
    [
      ("full normal mount > empty", full_ms > empty_ms);
      ("recovery >= normal, empty", rec_empty_ms >= empty_ms);
      ("recovery >= normal, full", rec_full_ms >= full_ms);
    ]
  in
  match List.filter (fun (_, holds) -> not holds) checks with
  | [] -> Printf.printf "shape: holds\n"
  | failed ->
      List.iter (fun (what, _) -> Printf.printf "SHAPE VIOLATED: %s\n" what) failed;
      exit 2

(* {1 Table 3: LoC and static checking} *)

let rec find_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "DESIGN.md")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let count_lines file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* OCaml lines under [rel], recursively; build output is skipped. *)
let rec loc_of_dir root rel =
  let dir = Filename.concat root rel in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        let sub = Filename.concat rel f in
        if Sys.is_directory (Filename.concat root sub) then
          if f = "_build" || f.[0] = '.' then acc else acc + loc_of_dir root sub
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
        then acc + count_lines (Filename.concat root sub)
        else acc)
      0 (Sys.readdir dir)

let tab3 () =
  section "Table 3: implementation size and static-check time";
  match find_root (Sys.getcwd ()) with
  | None -> Printf.printf "(source tree not found; skipping LoC count)\n"
  | Some root ->
      let sq =
        loc_of_dir root "lib/core"
        + loc_of_dir root "lib/typestate"
        + loc_of_dir root "lib/layout"
      in
      let shared = loc_of_dir root "lib/baselines" in
      let tree_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ] in
      let tree = List.fold_left (fun acc d -> acc + loc_of_dir root d) 0 tree_dirs in
      Printf.printf "%-12s %8s %34s\n" "system" "LoC" "static checking";
      let t0 = Unix.gettimeofday () in
      let states =
        List.fold_left
          (fun acc sc ->
            acc + (Model.Explore.run sc).Model.Explore.states_explored)
          0 Model.Scenarios.correct
      in
      let model_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Printf.printf "%-12s %8d %22.0f ms (model: %d states)\n" "squirrelfs" sq
        model_ms states;
      List.iter
        (fun name ->
          Printf.printf "%-12s %8d %34s\n" name shared
            "none (journaling, unchecked)")
        [ "ext4-dax"; "nova"; "winefs" ];
      Printf.printf "%-12s %8d %34s\n" "whole tree" tree
        (String.concat "/ " tree_dirs ^ "/");
      Printf.printf
        "(the paper's point: typestate checking happens inside an ordinary\n\
        \ compile; `dune build` typechecks the %d-line typestate-enforcing\n\
        \ core in seconds, the same order as the baselines)\n"
        sq

(* {1 Model checking (§5.7)} *)

let model () =
  section "Model checking (sec 5.7): SSU invariants over all crash states";
  Printf.printf "%-20s %10s %14s %10s\n" "scenario" "states" "crash states"
    "violations";
  List.iter
    (fun sc ->
      let o = Model.Explore.run sc in
      Printf.printf "%-20s %10d %14d %10d\n" sc.Model.Explore.sc_name
        o.Model.Explore.states_explored o.Model.Explore.crash_states_checked
        (List.length o.Model.Explore.violations))
    Model.Scenarios.correct

let bugs () =
  section "Bug reinjection (sec 4.2): mis-ordered variants must be caught";
  Printf.printf "-- model checker counterexamples --\n";
  List.iter
    (fun sc ->
      let o = Model.Explore.run sc in
      match o.Model.Explore.violations with
      | [] ->
          Printf.printf "%-16s NOT DETECTED (unexpected!)\n"
            sc.Model.Explore.sc_name
      | v :: _ ->
          Printf.printf "%-16s detected: %s\n" sc.Model.Explore.sc_name
            (String.concat " -> "
               (List.map
                  (fun s ->
                    Format.asprintf "%a" Model.Progs.pp_micro
                      s.Model.Explore.s_micro)
                  v.Model.Explore.v_trace)))
    Model.Scenarios.buggy;
  Printf.printf "-- crash harness on raw mis-ordered implementations --\n";
  List.iter
    (fun (name, w) ->
      let r = Crashcheck.Harness.run_workload w in
      Printf.printf "%-16s %d crash states, %d violations -> %s\n" name
        r.Crashcheck.Harness.crash_states
        (List.length r.Crashcheck.Harness.violations)
        (if r.Crashcheck.Harness.violations <> [] then "detected"
         else "NOT DETECTED (unexpected!)"))
    [
      ("buggy-create", Crashcheck.Workload.[ Mkdir "/d"; Buggy_create "/b" ]);
      ( "buggy-unlink",
        Crashcheck.Workload.
          [ Create "/a"; Write ("/a", 0, "xy"); Buggy_unlink "/a" ] );
      ( "buggy-write",
        Crashcheck.Workload.
          [ Create "/a"; Buggy_write ("/a", String.make 256 'z') ] );
    ]

(* {1 Crash-consistency testing (§5.7)} *)

let crash () =
  section "Crash-consistency testing (sec 5.7, Chipmunk substitute)";
  let t0 = Unix.gettimeofday () in
  let sys = Crashcheck.Workload.systematic_pairs () in
  let r1 = Crashcheck.Harness.run_suite sys in
  let fuzz =
    Crashcheck.Workload.random ~seed:2024 ~ops_per_workload:8 ~count:50
  in
  let r2 = Crashcheck.Harness.run_suite fuzz in
  let r = Crashcheck.Harness.merge r1 r2 in
  Printf.printf "systematic: %d workloads; fuzz: %d workloads (%.1f s wall)\n"
    (List.length sys) (List.length fuzz)
    (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Crashcheck.Harness.pp_report r;
  if r.Crashcheck.Harness.violations = [] then
    Printf.printf
      "no ordering-related crash-consistency bugs found (paper: Chipmunk\n\
       found none in typestate-checked SSU either)\n"

(* {1 Memory (§5.6)} *)

let mem () =
  section "Memory (sec 5.6): DRAM index footprint";
  let dev = device () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/megafile");
  let chunk = String.make 65536 'm' in
  for i = 0 to 15 do
    ignore (ok (Squirrelfs.write fs "/megafile" ~off:(i * 65536) chunk))
  done;
  let after_file = Squirrelfs.Index.footprint_bytes fs.Squirrelfs.Fsctx.index in
  ok (Squirrelfs.mkdir fs "/dir");
  for i = 0 to 99 do
    ok (Squirrelfs.create fs (Printf.sprintf "/dir/entry%02d" i))
  done;
  let after_dir = Squirrelfs.Index.footprint_bytes fs.Squirrelfs.Fsctx.index in
  Printf.printf "1 MiB file index: %d bytes (paper: ~4 KiB per 1 MiB file)\n"
    after_file;
  Printf.printf
    "100-entry directory: +%d bytes (~%d per dentry; paper: ~250 B)\n"
    (after_dir - after_file)
    ((after_dir - after_file) / 100)

(* {1 Ablation: fence sharing} *)

let ablate () =
  section "Ablation: shared fences vs one fence per object (sec 3.2/4.1)";
  let run ~share =
    let dev = device () in
    Squirrelfs.mkfs dev;
    let fs = ok (Squirrelfs.mount dev) in
    fs.Squirrelfs.Fsctx.share_fences <- share;
    ok (Squirrelfs.create fs "/warm");
    let f0 = (Device.stats dev).Pmem.Stats.fences in
    let t0 = Device.now_ns dev in
    for i = 0 to 199 do
      ok (Squirrelfs.create fs (Printf.sprintf "/f%d" i));
      ignore
        (ok
           (Squirrelfs.write fs
              (Printf.sprintf "/f%d" i)
              ~off:0 (String.make 1024 'a')));
      ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" i))
    done;
    ( float_of_int (Device.now_ns dev - t0) /. 1e6,
      (Device.stats dev).Pmem.Stats.fences - f0 )
  in
  let shared_ms, shared_f = run ~share:true in
  let solo_ms, solo_f = run ~share:false in
  Printf.printf "shared fences:    %8.2f ms, %6d sfences\n" shared_ms shared_f;
  Printf.printf "fence-per-object: %8.2f ms, %6d sfences (+%.0f%% time)\n"
    solo_ms solo_f
    ((solo_ms -. shared_ms) /. shared_ms *. 100.);
  (* COW data writes (sec 3.4 extension): price of data-level atomicity *)
  let dev = device () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/f");
  let ino = (ok (Squirrelfs.stat fs "/f")).Vfs.Fs.ino in
  let page = String.make 4096 'p' in
  ignore (ok (Squirrelfs.Ops.write fs ~ino ~off:0 page));
  let time_n n f =
    let t0 = Device.now_ns dev in
    for _ = 1 to n do
      f ()
    done;
    float_of_int (Device.now_ns dev - t0) /. float_of_int n /. 1000.
  in
  let plain =
    time_n 100 (fun () -> ignore (ok (Squirrelfs.Ops.write fs ~ino ~off:0 page)))
  in
  let cow =
    time_n 100 (fun () ->
        ignore (ok (Squirrelfs.Ops.write_atomic fs ~ino ~off:0 page)))
  in
  Printf.printf
    "COW data writes:  plain 4K overwrite %.2f us; crash-atomic (COW) %.2f \
     us (+%.0f%%)\n"
    plain cow
    ((cow -. plain) /. plain *. 100.)

(* {1 Split data path: fence schedule and open-handle throughput}

   Measures the two halves of the SplitFS-style datapath work: the
   coalesced fence schedule (in-place write = 1 sfence, extending
   append = 2, against the legacy 2/3 with [coalesce] off) and the
   open-handle ops against their path-resolving equivalents on a deep
   path. Everything is simulated time and exact fence counts, so the
   numbers are deterministic and gate-able. *)

type datapath = {
  dp_inplace : float;  (** fences per in-place 4K overwrite, coalesced *)
  dp_extend : float;  (** fences per one-page extending append, coalesced *)
  dp_inplace_legacy : float;
  dp_extend_legacy : float;
  dp_append_path : float;  (** path-resolving appends per simulated sec *)
  dp_append_h : float;  (** handle appends per simulated sec *)
  dp_read_path : float;
  dp_read_h : float;
}

let measure_datapath () =
  let fences_per_op ~coalesce ~inplace =
    let dev = device ~mb:8 () in
    Squirrelfs.mkfs dev;
    let fs = ok (Squirrelfs.mount dev) in
    fs.Squirrelfs.Fsctx.coalesce <- coalesce;
    ok (Squirrelfs.create fs "/f");
    let page = String.make 4096 'p' in
    ignore (ok (Squirrelfs.write fs "/f" ~off:0 page));
    let n = 50 in
    let f0 = (Device.stats dev).Pmem.Stats.fences in
    for i = 1 to n do
      let off = if inplace then 0 else i * 4096 in
      ignore (ok (Squirrelfs.write fs "/f" ~off page))
    done;
    float_of_int ((Device.stats dev).Pmem.Stats.fences - f0)
    /. float_of_int n
  in
  (* handle vs path ops on a deep path: the handle pays neither the
     per-component resolution charge nor per-page index queries *)
  let ops_per_sim_sec () =
    let dev = device ~mb:8 () in
    Squirrelfs.mkfs dev;
    let fs = ok (Squirrelfs.mount dev) in
    ok (Squirrelfs.mkdir fs "/d1");
    ok (Squirrelfs.mkdir fs "/d1/d2");
    ok (Squirrelfs.mkdir fs "/d1/d2/d3");
    let p = "/d1/d2/d3/f" in
    ok (Squirrelfs.create fs p);
    ignore (ok (Squirrelfs.write fs p ~off:0 (String.make 4096 'w')));
    ok (Squirrelfs.open_file fs "h" p);
    let n = 200 in
    let rate f =
      let t0 = Device.now_ns dev in
      for i = 1 to n do
        f i
      done;
      float_of_int n *. 1e9 /. float_of_int (Device.now_ns dev - t0)
    in
    let data = String.make 1024 'd' in
    let append_path =
      rate (fun _ -> ignore (ok (Squirrelfs.write fs p ~off:0 data)))
    in
    let append_h =
      rate (fun _ -> ignore (ok (Squirrelfs.write_h fs "h" ~off:0 data)))
    in
    let read_path =
      rate (fun _ -> ignore (ok (Squirrelfs.read fs p ~off:0 ~len:1024)))
    in
    let read_h =
      rate (fun _ -> ignore (ok (Squirrelfs.read_h fs "h" ~off:0 ~len:1024)))
    in
    (append_path, append_h, read_path, read_h)
  in
  let dp_append_path, dp_append_h, dp_read_path, dp_read_h =
    ops_per_sim_sec ()
  in
  {
    dp_inplace = fences_per_op ~coalesce:true ~inplace:true;
    dp_extend = fences_per_op ~coalesce:true ~inplace:false;
    dp_inplace_legacy = fences_per_op ~coalesce:false ~inplace:true;
    dp_extend_legacy = fences_per_op ~coalesce:false ~inplace:false;
    dp_append_path;
    dp_append_h;
    dp_read_path;
    dp_read_h;
  }

(* The acceptance bar: coalesced in-place = exactly 1 fence, extending
   append within 2; never worse than the legacy schedule; handle ops at
   least match their path equivalents. *)
let datapath_ok d =
  d.dp_inplace = 1.0
  && d.dp_extend <= 2.0
  && d.dp_inplace <= d.dp_inplace_legacy
  && d.dp_extend <= d.dp_extend_legacy
  && d.dp_append_h >= d.dp_append_path
  && d.dp_read_h >= d.dp_read_path

let datapath_json d =
  Printf.sprintf
    "{ \"inplace_fences_per_op\": %.2f, \"extend_fences_per_op\": %.2f, \
     \"legacy_inplace_fences_per_op\": %.2f, \
     \"legacy_extend_fences_per_op\": %.2f, \
     \"appends_per_sim_s_path\": %.1f, \"appends_per_sim_s_handle\": %.1f, \
     \"reads_per_sim_s_path\": %.1f, \"reads_per_sim_s_handle\": %.1f, \
     \"handle_append_speedup\": %.3f, \"handle_read_speedup\": %.3f, \
     \"ok\": %b }"
    d.dp_inplace d.dp_extend d.dp_inplace_legacy d.dp_extend_legacy
    d.dp_append_path d.dp_append_h d.dp_read_path d.dp_read_h
    (d.dp_append_h /. d.dp_append_path)
    (d.dp_read_h /. d.dp_read_path)
    (datapath_ok d)

let datapath () =
  section "Split data path: fence schedule and open-handle throughput";
  let d = measure_datapath () in
  Printf.printf "fences/op:   in-place %.2f (legacy %.2f), extend %.2f (legacy %.2f)\n"
    d.dp_inplace d.dp_inplace_legacy d.dp_extend d.dp_extend_legacy;
  Printf.printf
    "appends/sim-s: path %.0f, handle %.0f (%.2fx); reads/sim-s: path %.0f, \
     handle %.0f (%.2fx)\n"
    d.dp_append_path d.dp_append_h
    (d.dp_append_h /. d.dp_append_path)
    d.dp_read_path d.dp_read_h
    (d.dp_read_h /. d.dp_read_path);
  if not (datapath_ok d) then begin
    Printf.printf "DATAPATH REGRESSION\n";
    exit 2
  end

(* {1 Fault subsystem: checksum overhead, scrub throughput, detection} *)

let faults () =
  section "Fault subsystem: csum overhead / scrub throughput / detection";
  (* Metadata checksum overhead: the same op sequence on a plain volume
     and on a csum volume, in simulated time. *)
  let run_meta ~csum =
    let dev = device ~mb:4 () in
    Squirrelfs.Mount.mkfs ~csum dev;
    let fs = ok (Squirrelfs.mount dev) in
    let t0 = Device.now_ns dev in
    for i = 0 to 99 do
      let p = Printf.sprintf "/f%d" i in
      ignore (ok (Squirrelfs.create fs p) : unit);
      ignore (ok (Squirrelfs.write fs p ~off:0 "payload") : int)
    done;
    for i = 0 to 99 do
      ignore (ok (Squirrelfs.unlink fs (Printf.sprintf "/f%d" i)) : unit)
    done;
    float_of_int (Device.now_ns dev - t0) /. 1000.
  in
  let plain = run_meta ~csum:false and csum = run_meta ~csum:true in
  Printf.printf
    "metadata csum:    100x create+write+unlink: plain %.1f us, csum %.1f \
     us (+%.2f%%)\n"
    plain csum
    ((csum -. plain) /. plain *. 100.);
  (* Scrub throughput over the whole device, simulated. *)
  let dev = device ~mb:4 () in
  Squirrelfs.Mount.mkfs ~csum:true dev;
  let fs = ok (Squirrelfs.mount dev) in
  Device.set_fault_plan dev (Faults.Plan.make ~seed:42 ());
  let t0 = Device.now_ns dev in
  let bad = Device.scrub dev in
  let dt = Device.now_ns dev - t0 in
  let mb = 4.0 in
  Printf.printf
    "scrub:            %.0f MiB in %.2f ms simulated (%.2f GiB/s), %d bad \
     lines\n"
    mb
    (float_of_int dt /. 1e6)
    (mb /. 1024. /. (float_of_int dt /. 1e9))
    (List.length bad);
  (* Detection pipeline: seeded flips -> scrub -> degraded remount. *)
  List.iter
    (fun p -> ignore (ok (Squirrelfs.create fs p) : unit))
    [ "/a"; "/b"; "/c" ];
  let flips = 3 in
  List.iteri
    (fun i p ->
      if i < flips then begin
        let ino = (ok (Squirrelfs.stat fs p)).Vfs.Fs.ino in
        let base = Layout.Geometry.inode_off fs.Squirrelfs.Fsctx.geo ~ino in
        Device.flip_bit dev ~off:(base + Layout.Records.Inode.f_kind) ~bit:1
      end)
    [ "/a"; "/b"; "/c" ];
  let caught = List.length (Device.scrub dev) in
  (match Squirrelfs.mount (Device.of_image (Device.image_durable dev)) with
  | Ok fs2 ->
      let ms = Squirrelfs.Mount.last_stats () in
      let eio =
        List.length
          (List.filter
             (fun p -> Squirrelfs.stat fs2 p = Error Vfs.Errno.EIO)
             [ "/a"; "/b"; "/c" ])
      in
      Printf.printf
        "detection:        %d/%d flips scrub-flagged; remount degraded=%b, \
         %d inodes quarantined, %d/%d paths EIO\n"
        caught flips ms.Squirrelfs.Mount.degraded
        ms.Squirrelfs.Mount.quarantined_inodes eio flips
  | Error e ->
      Printf.printf "detection:        degraded remount failed: %s\n"
        (Vfs.Errno.to_string e))

(* {1 Large sparse volumes: mkfs/mount/create scaling (the dense wall)}

   A multi-GB simulated volume must cost what is *touched*, not what is
   formatted: mkfs and an empty mount are near-constant (lazy chunk
   backing plus the run-map allocator, fully free from geometry in
   O(1)), a populated mount scans only backed spans, and resident
   memory tracks touched lines rather than volume size. The section
   times a sharded create/stat sweep on a volume above the sparse
   threshold and gates on (a) the volume actually being sparse, (b)
   near-constant mkfs + empty mount, and (c) residency staying a small
   fraction of the volume. Wall-clock numbers, deliberately: the claim
   under test is host cost, not simulated PM latency. *)

type largevol = {
  lv_size : int;
  lv_files : int;
  lv_sparse : bool;
  lv_mkfs_ms : float;
  lv_mount_empty_ms : float;
  lv_mount_full_ms : float;  (** remount after the create sweep *)
  lv_creates_per_sec : float;
  lv_stats_per_sec : float;
  lv_resident_bytes : int;
}

let measure_largevol ~size ~files () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let dev, _ = wall (fun () -> Device.create ~size ()) in
  let (), mkfs_ms = wall (fun () -> Squirrelfs.mkfs dev) in
  let fs, mount_empty_ms = wall (fun () -> ok (Squirrelfs.mount dev)) in
  (* ~500 files per directory: keeps dentry pages per dir bounded so the
     sweep measures create cost, not directory scans *)
  let per_dir = 500 in
  let path i = Printf.sprintf "/d%d/f%d" (i / per_dir) i in
  let (), create_ms =
    wall (fun () ->
        for i = 0 to files - 1 do
          if i mod per_dir = 0 then
            ok (Squirrelfs.mkdir fs (Printf.sprintf "/d%d" (i / per_dir)));
          ok (Squirrelfs.create fs (path i))
        done)
  in
  let (), stat_ms =
    wall (fun () ->
        for i = 0 to files - 1 do
          ignore (ok (Squirrelfs.stat fs (path i)))
        done)
  in
  Squirrelfs.unmount fs;
  let fs, mount_full_ms = wall (fun () -> ok (Squirrelfs.mount dev)) in
  Squirrelfs.unmount fs;
  {
    lv_size = size;
    lv_files = files;
    lv_sparse = Device.is_sparse dev;
    lv_mkfs_ms = mkfs_ms;
    lv_mount_empty_ms = mount_empty_ms;
    lv_mount_full_ms = mount_full_ms;
    lv_creates_per_sec = float_of_int files /. create_ms *. 1000.;
    lv_stats_per_sec = float_of_int files /. stat_ms *. 1000.;
    lv_resident_bytes = Device.resident_bytes dev;
  }

(* The acceptance bar. mkfs and the empty mount must not scale with the
   volume (generous absolute bounds — CI hosts vary), and the backing
   must stay sparse: resident bytes under a quarter of the volume even
   after the sweep (in practice it is a few percent). *)
let largevol_ok l =
  l.lv_sparse
  && l.lv_mkfs_ms < 2000.
  && l.lv_mount_empty_ms < 2000.
  && l.lv_resident_bytes < l.lv_size / 4

let largevol_json l =
  Printf.sprintf
    "{ \"volume_bytes\": %d, \"files\": %d, \"sparse\": %b, \
     \"mkfs_ms\": %.2f, \"mount_empty_ms\": %.2f, \"mount_full_ms\": %.2f, \
     \"creates_per_sec\": %.0f, \"stats_per_sec\": %.0f, \
     \"resident_bytes\": %d, \"resident_fraction\": %.6f, \"ok\": %b }"
    l.lv_size l.lv_files l.lv_sparse l.lv_mkfs_ms l.lv_mount_empty_ms
    l.lv_mount_full_ms l.lv_creates_per_sec l.lv_stats_per_sec
    l.lv_resident_bytes
    (float_of_int l.lv_resident_bytes /. float_of_int l.lv_size)
    (largevol_ok l)

let largevol_report l =
  Printf.printf "volume: %d MiB (%s), %d files\n" (l.lv_size / 1024 / 1024)
    (if l.lv_sparse then "sparse" else "dense")
    l.lv_files;
  Printf.printf "mkfs %.1f ms; mount empty %.1f ms; remount full %.1f ms\n"
    l.lv_mkfs_ms l.lv_mount_empty_ms l.lv_mount_full_ms;
  Printf.printf "creates/s %.0f; stats/s %.0f\n" l.lv_creates_per_sec
    l.lv_stats_per_sec;
  Printf.printf "resident %.1f MiB (%.2f%% of volume)\n"
    (float_of_int l.lv_resident_bytes /. 1024. /. 1024.)
    (float_of_int l.lv_resident_bytes /. float_of_int l.lv_size *. 100.)

let largevol_run ~size ~files () =
  let l = measure_largevol ~size ~files () in
  largevol_report l;
  if not (largevol_ok l) then begin
    Printf.printf "LARGEVOL REGRESSION (dense wall is back)\n";
    exit 2
  end

(* [largevol]: the smoke gate (wired into `make largevol-smoke`).
   [largevol-full]: the EXPERIMENTS.md headline run — 1M files on a
   volume sized to hold them (one inode per 16.4 KiB group). *)
let largevol () =
  section "Large sparse volume: 4 GiB, 100k files";
  largevol_run ~size:(4 * 1024 * 1024 * 1024) ~files:100_000 ()

let largevol_full () =
  section "Large sparse volume (full): 18 GiB, 1M files";
  largevol_run ~size:(18 * 1024 * 1024 * 1024) ~files:1_000_000 ()

(* {1 Bechamel: one wall-clock benchmark per table/figure} *)

let bechamel () =
  section "Bechamel wall-clock benchmarks (one Test.make per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let small_device () =
    Device.create ~latency:Latency.optane ~size:(4 * 1024 * 1024) ()
  in
  let stage = Staged.stage in
  let tests =
    Test.make_grouped ~name:"paper"
      [
        Test.make ~name:"fig5a-micro"
          (stage (fun () ->
               ignore
                 (W.Micro.run (module Squirrelfs) ~device:small_device
                    ~trials:1 ~reps:4 ())));
        Test.make ~name:"fig5b-filebench"
          (stage (fun () ->
               ignore
                 (W.Filebench.run (module Squirrelfs) ~device:small_device
                    ~nfiles:20 ~ops:100 W.Filebench.Fileserver)));
        Test.make ~name:"fig5c-ycsb"
          (stage (fun () ->
               ignore
                 (W.Ycsb.run (module Squirrelfs) ~device:small_device
                    ~records:50 ~operations:50 W.Ycsb.Run_a)));
        Test.make ~name:"fig5d-lmdb"
          (stage (fun () ->
               ignore
                 (W.Lmdb_sim.run (module Squirrelfs) ~device:small_device
                    ~keys:100 "fillseqbatch")));
        Test.make ~name:"git-checkout"
          (stage (fun () ->
               ignore
                 (W.Gitbench.run (module Squirrelfs) ~device:small_device
                    ~files:40 ~versions:1 ())));
        Test.make ~name:"tab2-mount"
          (stage (fun () ->
               let dev = small_device () in
               Squirrelfs.mkfs dev;
               ignore (ok (Squirrelfs.Mount.mount_recover dev))));
        Test.make ~name:"tab3-modelcheck"
          (stage (fun () ->
               ignore (Model.Explore.run (List.hd Model.Scenarios.correct))));
        Test.make ~name:"s57-crashcheck"
          (stage (fun () ->
               ignore
                 (Crashcheck.Harness.run_workload
                    Crashcheck.Workload.[ Create "/a"; Rename ("/a", "/b") ])));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (e :: _) -> Printf.printf "%-34s %12.3f ms/run\n" name (e /. 1e6)
      | Some [] | None -> Printf.printf "%-34s (no estimate)\n" name)
    (List.sort compare rows)

(* {1 Crash-state fuzzer throughput (the Chipmunk role, §5.7)}

   States/sec is the fuzzing north-star metric: how fast the differential
   oracle explores recovered crash states (views patched into one scratch
   buffer, zero-copy mounts, memoized fsck verdicts) — on the 32 MB
   default volume, where the per-state cost of a full-device pass would
   be largest. *)

type fuzz_measure = {
  fm_states : int;
  fm_deduped : int;
  fm_sim_ns : int;
  fm_wall : float;
  fm_report : Fuzzer.report;
  fm_shards : Fuzzer.Parallel.shard_stat list;
}

let fuzz_cfg ?(seed = 7) ?(buggy_rate = 0.) ~mb ~iters ~op_budget () =
  {
    Fuzzer.default_cfg with
    seed;
    iters;
    op_budget;
    buggy_rate;
    device_size = mb * 1024 * 1024;
    latency = Some Pmem.Latency.optane;
    shrink = false;
  }

let measure_fuzz ?(jobs = 1) cfg =
  let t0 = Unix.gettimeofday () in
  let r, shards = Fuzzer.Parallel.run_stats ~jobs cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let h = r.Fuzzer.r_harness in
  {
    fm_states =
      h.Crashcheck.Harness.crash_states + h.Crashcheck.Harness.media_states;
    fm_deduped = h.Crashcheck.Harness.states_deduped;
    fm_sim_ns = r.Fuzzer.r_sim_ns;
    fm_wall = wall;
    fm_report = r;
    fm_shards = shards;
  }

let states_per_wall m =
  if m.fm_wall > 0. then float_of_int m.fm_states /. m.fm_wall else 0.

let fuzz () =
  section "Crash-state fuzzer throughput (32 MB volume)";
  let mb = 32 and iters = 2 and op_budget = 5 in
  let m = measure_fuzz (fuzz_cfg ~mb ~iters ~op_budget ()) in
  Printf.printf "%12s %9s %9s %16s\n" "crash-states" "deduped" "wall (s)"
    "states/wall-sec";
  Printf.printf "%12d %9d %9.2f %16.0f\n" m.fm_states m.fm_deduped m.fm_wall
    (states_per_wall m);
  (* Default-volume throughput, for continuity with earlier numbers. *)
  let r =
    (measure_fuzz
       { (fuzz_cfg ~mb:0 ~iters:12 ~op_budget:6 ()) with
         Fuzzer.device_size = Fuzzer.default_cfg.Fuzzer.device_size;
         shrink = true;
       })
      .fm_report
  in
  let h = r.Fuzzer.r_harness in
  Printf.printf
    "default volume: sequences=%d ops=%d fences=%d crash-states=%d deduped=%d \
     violations=%d\n"
    r.Fuzzer.r_iters h.Crashcheck.Harness.ops_run
    h.Crashcheck.Harness.fences_probed h.Crashcheck.Harness.crash_states
    h.Crashcheck.Harness.states_deduped
    (List.length h.Crashcheck.Harness.violations);
  (match Fuzzer.states_per_sim_sec r with
  | Some s -> Printf.printf "crash states / simulated second:  %.0f\n" s
  | None -> ())

(* {1 BENCH_fuzz.json: machine-readable perf trajectory}

   [fuzz-json] (full: 32 MB volume + -j sharding check) and
   [fuzz-json-quick] (small volume, wired into `make check`) write the
   same JSON shape so CI can track states/sec from PR to PR. *)

let fuzz_json_common ~mode ~mb ~iters ~op_budget ~jobs ~jiters_per_job () =
  section
    (Printf.sprintf "BENCH_fuzz.json (%s: %d MB volume, %d iters, -j %d)" mode
       mb iters jobs);
  let delta = measure_fuzz (fuzz_cfg ~mb ~iters ~op_budget ()) in
  (* Scaling check on the default volume with mutants on: -j N must
     reproduce the -j 1 report (both canonicalized by [run_stats])
     bit-for-bit, and its wall clock is compared against -j 1 over the
     SAME total iteration count. The count scales with the job count
     ([jiters_per_job] iterations per requested job) so every domain has
     real work — a fixed count smaller than [jobs] would spawn idle
     domains and bill their spawn/join cost to the parallel run. *)
  let jiters = jiters_per_job * jobs in
  let jcfg =
    {
      (fuzz_cfg ~seed:1 ~buggy_rate:0.15 ~mb:0 ~iters:jiters ~op_budget:6 ())
      with
      Fuzzer.device_size = Fuzzer.default_cfg.Fuzzer.device_size;
      shrink = true;
    }
  in
  let j1 = measure_fuzz ~jobs:1 jcfg in
  let jn = measure_fuzz ~jobs jcfg in
  let jobs_equiv = j1.fm_report = jn.fm_report in
  let host_cores = Domain.recommended_domain_count () in
  let speedup = if jn.fm_wall > 0. then j1.fm_wall /. jn.fm_wall else 0. in
  let parallel_efficiency = speedup /. float_of_int jobs in
  let states_per_sim m =
    if m.fm_sim_ns > 0 then
      float_of_int m.fm_states *. 1e9 /. float_of_int m.fm_sim_ns
    else 0.
  in
  let dedup_ratio m =
    if m.fm_states > 0 then float_of_int m.fm_deduped /. float_of_int m.fm_states
    else 0.
  in
  let states_json m =
    Printf.sprintf
      "{ \"crash_states\": %d, \"states_deduped\": %d, \"dedup_ratio\": %.4f, \
       \"wall_s\": %.4f, \"states_per_wall_s\": %.1f, \
       \"states_per_sim_s\": %.1f }"
      m.fm_states m.fm_deduped (dedup_ratio m) m.fm_wall (states_per_wall m)
      (states_per_sim m)
  in
  let shards_json =
    String.concat ",\n"
      (List.map
         (fun (s : Fuzzer.Parallel.shard_stat) ->
           Printf.sprintf
             "    { \"shard\": %d, \"iters\": %d, \"chunks\": %d, \
              \"wall_s\": %.4f }"
             s.Fuzzer.Parallel.ss_shard s.Fuzzer.Parallel.ss_iters
             s.Fuzzer.Parallel.ss_chunks s.Fuzzer.Parallel.ss_wall_s)
         jn.fm_shards)
  in
  (* Bounded enumeration throughput: the full clean seq-2 sweep (it is
     small by construction — |alphabet|² sequences — so even "quick"
     runs the whole tier and the numbers are comparable across modes,
     modulo the crash-image cap). *)
  let ecfg =
    {
      Fuzzer.Enum.default_cfg with
      Fuzzer.Enum.max_images = (if mode = "full" then 8 else 4);
    }
  in
  let et0 = Unix.gettimeofday () in
  let er = Fuzzer.Enum.run ecfg in
  let e_wall = Unix.gettimeofday () -. et0 in
  let e_states = er.Fuzzer.Enum.e_harness.Crashcheck.Harness.crash_states in
  let enum_json =
    Printf.sprintf
      "{ \"alphabet\": %d, \"depth\": %d, \"total\": %d, \"skipped\": %d, \
       \"enumerated\": %d, \"executed\": %d, \"distinct_state_traces\": %d, \
       \"deduped_sequences\": %d, \"crash_states\": %d, \"wall_s\": %.4f, \
       \"states_per_wall_s\": %.1f, \"reconciles\": %b, \"quiet\": %b }"
      er.Fuzzer.Enum.e_alphabet er.Fuzzer.Enum.e_depth er.Fuzzer.Enum.e_total
      er.Fuzzer.Enum.e_skipped er.Fuzzer.Enum.e_enumerated
      er.Fuzzer.Enum.e_executed er.Fuzzer.Enum.e_distinct
      er.Fuzzer.Enum.e_deduped e_states e_wall
      (if e_wall > 0. then float_of_int e_states /. e_wall else 0.)
      (Fuzzer.Enum.reconciles er)
      (er.Fuzzer.Enum.e_found = [] && er.Fuzzer.Enum.e_ssu_found = [])
  in
  let enum_ok =
    Fuzzer.Enum.reconciles er
    && er.Fuzzer.Enum.e_found = []
    && er.Fuzzer.Enum.e_ssu_found = []
  in
  (* Split-data-path gauges: exact fence counts and handle-vs-path
     throughput, gated below like the sharding/enum invariants. *)
  let dp = measure_datapath () in
  (* Large-volume gauges: sparse backing + run-map allocator scaling
     (quick keeps the volume just above the sparse threshold so `make
     check` stays fast; full runs the 4 GiB smoke configuration). *)
  let lv =
    if mode = "full" then
      measure_largevol ~size:(4 * 1024 * 1024 * 1024) ~files:100_000 ()
    else
      (* geometry provisions one inode per ~16.4 KiB, so 256 MiB holds
         ~16k inodes — 10k files + directories fits with headroom *)
      measure_largevol ~size:(256 * 1024 * 1024) ~files:10_000 ()
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"volume_mb\": %d,\n\
      \  \"iters\": %d,\n\
      \  \"op_budget\": %d,\n\
      \  \"delta\": %s,\n\
      \  \"enum\": %s,\n\
      \  \"datapath\": %s,\n\
      \  \"large_volume\": %s,\n\
      \  \"jobs\": {\n\
      \    \"n\": %d,\n\
      \    \"host_cores\": %d,\n\
      \    \"iters\": %d,\n\
      \    \"j1_wall_s\": %.4f,\n\
      \    \"jn_wall_s\": %.4f,\n\
      \    \"speedup\": %.3f,\n\
      \    \"parallel_efficiency\": %.3f,\n\
      \    \"identical_reports\": %b,\n\
      \    \"shards\": [\n%s\n    ]\n\
      \  }\n\
       }\n"
      mode mb iters op_budget (states_json delta) enum_json (datapath_json dp)
      (largevol_json lv) jobs host_cores jiters j1.fm_wall jn.fm_wall speedup
      parallel_efficiency jobs_equiv shards_json
  in
  let oc = open_out "BENCH_fuzz.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.printf "wrote BENCH_fuzz.json\n";
  if not jobs_equiv then begin
    Printf.printf "BENCH_fuzz: SHARDING MISMATCH\n";
    exit 2
  end;
  if not enum_ok then begin
    Printf.printf "BENCH_fuzz: ENUMERATION NOT CLEAN OR NOT RECONCILING\n";
    exit 2
  end;
  if not (datapath_ok dp) then begin
    Printf.printf "BENCH_fuzz: DATAPATH REGRESSION\n";
    exit 2
  end;
  if not (largevol_ok lv) then begin
    Printf.printf "BENCH_fuzz: LARGE-VOLUME REGRESSION (dense wall is back)\n";
    exit 2
  end;
  (* Scaling gate: -j N slower than -j 1 on the same work is the
     regression this section exists to catch. On a single-core host the
     comparison cannot show a speedup (domains time-slice one CPU), so
     the gate only fails the build when the host actually has the cores
     to scale with. *)
  if jn.fm_wall > j1.fm_wall then begin
    Printf.printf
      "BENCH_fuzz: WARNING: -j %d wall (%.3fs) exceeds -j 1 wall (%.3fs)%s\n"
      jobs jn.fm_wall j1.fm_wall
      (if host_cores <= 1 then
         Printf.sprintf " [host has %d core: parallel speedup impossible]"
           host_cores
       else "");
    if mode = "full" && host_cores > 1 then begin
      Printf.printf "BENCH_fuzz: PARALLEL SCALING REGRESSION\n";
      exit 3
    end
  end

let fuzz_json () =
  fuzz_json_common ~mode:"full" ~mb:32 ~iters:2 ~op_budget:5 ~jobs:4
    ~jiters_per_job:6 ()

let fuzz_json_quick () =
  fuzz_json_common ~mode:"quick" ~mb:2 ~iters:2 ~op_budget:4 ~jobs:4
    ~jiters_per_job:2 ()

(* {1 BENCH_serve.json: request-frontend throughput and latency}

   [serve-json] (full) and [serve-json-quick] (wired into `make check`)
   replay the Zipf session load through the concurrent server and write
   ops/sec, per-op latency quantiles, lock-protocol stats and the -j 1
   determinism witness. The -j N leg reruns the same traffic on worker
   domains; like BENCH_fuzz, the scaling gate only fails on hosts that
   actually have the cores to scale with (PR 5's 1-CPU-container
   caveat, see EXPERIMENTS.md). *)

let serve_json_common ~mode ~clients ~ops ~jobs () =
  section
    (Printf.sprintf "BENCH_serve.json (%s: %d clients x %d ops, -j %d)" mode
       clients ops jobs);
  let cfg j =
    {
      Serve.Loadgen.default with
      Serve.Loadgen.clients;
      ops_per_client = ops;
      jobs = j;
      seed = 1;
    }
  in
  let j1 = Serve.Loadgen.run (cfg 1) in
  let j1b = Serve.Loadgen.run (cfg 1) in
  let deterministic =
    j1.Serve.Loadgen.r_durable_hash = j1b.Serve.Loadgen.r_durable_hash
    && j1.Serve.Loadgen.r_oks = j1b.Serve.Loadgen.r_oks
    && j1.Serve.Loadgen.r_errs = j1b.Serve.Loadgen.r_errs
    && Obs.Metrics.equal j1.Serve.Loadgen.r_metrics j1b.Serve.Loadgen.r_metrics
  in
  let jn = Serve.Loadgen.run (cfg jobs) in
  let host_cores = Domain.recommended_domain_count () in
  let speedup =
    if j1.Serve.Loadgen.r_ops_per_sec > 0. then
      jn.Serve.Loadgen.r_ops_per_sec /. j1.Serve.Loadgen.r_ops_per_sec
    else 0.
  in
  let lat (r : Serve.Loadgen.report) name =
    match Obs.Metrics.hist r.Serve.Loadgen.r_metrics ("srv." ^ name) with
    | Some h ->
        Printf.sprintf
          "{ \"p50_ns\": %d, \"p99_ns\": %d }"
          (Obs.Metrics.quantile h 0.5)
          (Obs.Metrics.quantile h 0.99)
    | None -> "null"
  in
  let leg (r : Serve.Loadgen.report) =
    Printf.sprintf
      "{ \"jobs\": %d, \"ops\": %d, \"oks\": %d, \"wall_s\": %.4f, \
       \"ops_per_sec\": %.1f, \"sim_ms\": %d, \"retries\": %d, \
       \"fallbacks\": %d, \"fair_min\": %d, \"fair_max\": %d,\n\
      \    \"lat\": { \"write\": %s, \"read\": %s, \"stat\": %s, \
       \"create\": %s, \"rename\": %s } }"
      r.Serve.Loadgen.r_cfg.Serve.Loadgen.jobs r.Serve.Loadgen.r_ops
      r.Serve.Loadgen.r_oks r.Serve.Loadgen.r_wall_s
      r.Serve.Loadgen.r_ops_per_sec
      (r.Serve.Loadgen.r_sim_ns / 1_000_000)
      r.Serve.Loadgen.r_retries r.Serve.Loadgen.r_fallbacks
      r.Serve.Loadgen.r_fair_min r.Serve.Loadgen.r_fair_max (lat r "write")
      (lat r "read") (lat r "stat") (lat r "create") (lat r "rename")
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"mode\": \"%s\",\n\
      \  \"clients\": %d,\n\
      \  \"ops_per_client\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"j1_deterministic\": %b,\n\
      \  \"j1_durable_hash\": \"%Lx\",\n\
      \  \"j1\": %s,\n\
      \  \"jn\": %s,\n\
      \  \"speedup\": %.3f,\n\
      \  \"parallel_efficiency\": %.3f\n\
       }\n"
      mode clients ops host_cores deterministic
      j1.Serve.Loadgen.r_durable_hash (leg j1) (leg jn) speedup
      (speedup /. float_of_int jobs)
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  Printf.printf "wrote BENCH_serve.json\n";
  if not deterministic then begin
    Printf.printf "BENCH_serve: -j 1 NON-DETERMINISTIC\n";
    exit 2
  end;
  if speedup < 1.0 then begin
    Printf.printf
      "BENCH_serve: WARNING: -j %d throughput (%.0f ops/s) below -j 1 \
       (%.0f ops/s)%s\n"
      jobs jn.Serve.Loadgen.r_ops_per_sec j1.Serve.Loadgen.r_ops_per_sec
      (if host_cores <= 1 then
         Printf.sprintf " [host has %d core: parallel speedup impossible]"
           host_cores
       else "");
    if mode = "full" && host_cores > 1 then begin
      Printf.printf "BENCH_serve: PARALLEL SCALING REGRESSION\n";
      exit 3
    end
  end

let serve_json () =
  serve_json_common ~mode:"full" ~clients:1000 ~ops:50 ~jobs:4 ()

let serve_json_quick () =
  serve_json_common ~mode:"quick" ~clients:100 ~ops:20 ~jobs:2 ()

(* {1 BENCH_fuzz.json "snapshot" object: snapshot-path gauges}

   [snap-json] merges a "snapshot" object into BENCH_fuzz.json:
   snapshot-create latency on a small dense volume and on a 4 GiB
   sparse one, clone-mount latency, and scrub throughput. The exit-2
   gates hold the tentpole claim — creation cost is O(dirty lines), not
   O(volume): the 4 GiB create must stay under 10 ms absolute and
   within a small factor of the 64 MiB create, and the pin must retain
   only the delta (0 lines immediately after a quiesced capture). *)

let time_ns f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let snap_volume size =
  let dev = Device.create ~size () in
  Squirrelfs.mkfs dev;
  let fs = ok (Squirrelfs.mount dev) in
  ok (Squirrelfs.create fs "/f");
  ignore (ok (Squirrelfs.write fs "/f" ~off:0 (String.make 8192 'd')) : int);
  (* warm-up capture: the first [durable_hash] is the one O(backed)
     pass that enables content hashing — charge it here, not to the
     timed creates *)
  ignore (ok (Snap.snapshot fs "warmup") : Snap.info);
  fs

let creates_ns fs =
  List.init 8 (fun i ->
      ignore
        (ok (Squirrelfs.write fs "/f" ~off:(i * 64) (String.make 64 'x')) : int);
      let _, ns =
        time_ns (fun () -> ok (Snap.snapshot fs (Printf.sprintf "t%d" i)))
      in
      ns)

let snap_json () =
  section "BENCH_fuzz.json snapshot object (create/clone/scrub gauges)";
  let small = snap_volume (64 * 1024 * 1024) in
  let small_ns = median (creates_ns small) in
  let big = snap_volume (4 * 1024 * 1024 * 1024) in
  let big_ns = median (creates_ns big) in
  let delta_lines =
    (* immediately after a quiesced capture the pin holds no pre-images
       at all: memory and capture cost are O(dirty lines since), never
       O(volume) *)
    match Snap.pin_delta big "t7" with
    | Some (_, saved) -> List.length saved
    | None -> -1
  in
  let clone_fs, clone_ns =
    time_ns (fun () -> ok (Snap.clone big "t7"))
  in
  Squirrelfs.unmount clone_fs;
  (* scrub throughput: dirty a known volume of data past the capture so
     every pin verification patches that many saved lines *)
  let dirty_mb = 2 in
  for i = 0 to dirty_mb - 1 do
    ignore
      (ok
         (Squirrelfs.write big "/f"
            ~off:(i * 1024 * 1024 / 8)
            (String.make (64 * 1024) 's'))
      : int)
  done;
  let scrub_res, scrub_ns = time_ns (fun () -> Snap.scrub big) in
  let scrub_ok = List.for_all snd scrub_res in
  let scrub_mb_s =
    if scrub_ns > 0 then
      float_of_int dirty_mb *. float_of_int (List.length scrub_res)
      /. (float_of_int scrub_ns /. 1e9)
    else 0.
  in
  let obj =
    Printf.sprintf
      "{ \"create_ns_64mb\": %d, \"create_ns_4gb\": %d, \
       \"create_big_over_small\": %.2f, \"delta_lines_at_capture\": %d, \
       \"clone_mount_ns\": %d, \"scrub_mb_s\": %.1f, \"scrub_intact\": %b }"
      small_ns big_ns
      (if small_ns > 0 then float_of_int big_ns /. float_of_int small_ns
       else 0.)
      delta_lines clone_ns scrub_mb_s scrub_ok
  in
  (* merge into BENCH_fuzz.json: replace a previous "snapshot" object
     or splice before the closing brace; standalone file if absent *)
  let file = "BENCH_fuzz.json" in
  let prev =
    if Sys.file_exists file then (
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s)
    else "{\n}\n"
  in
  let prefix =
    let marker = "\n  \"snapshot\":" in
    let mlen = String.length marker in
    let rec find i =
      if i + mlen > String.length prev then None
      else if String.sub prev i mlen = marker then Some i
      else find (i + 1)
    in
    let cut =
      match find 0 with
      | Some i -> i
      | None -> (
          match String.rindex_opt prev '}' with
          | Some i -> i
          | None -> String.length prev)
    in
    let p = String.trim (String.sub prev 0 cut) in
    (* drop a trailing comma left by a replaced previous object *)
    if p <> "" && p.[String.length p - 1] = ',' then
      String.sub p 0 (String.length p - 1)
    else p
  in
  let sep = if prefix = "{" then "" else "," in
  let json = Printf.sprintf "%s%s\n  \"snapshot\": %s\n}\n" prefix sep obj in
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  Printf.printf "snapshot: %s\nmerged into %s\n" obj file;
  if big_ns > 10_000_000 then begin
    Printf.printf
      "BENCH_snap: SNAPSHOT CREATE NOT O(dirty): %.3f ms on 4 GiB sparse \
       (gate: 10 ms)\n"
      (float_of_int big_ns /. 1e6);
    exit 2
  end;
  if delta_lines <> 0 then begin
    Printf.printf
      "BENCH_snap: PIN RETAINS %d LINES AT CAPTURE (gate: 0 — delta only)\n"
      delta_lines;
    exit 2
  end;
  if small_ns > 0 && big_ns > 64 * small_ns then begin
    (* a volume-proportional implementation would be ~64x slower on the
       64x larger volume; an O(dirty) one is scale-free (the factor
       allows 1-CPU container timing noise) *)
    Printf.printf
      "BENCH_snap: CREATE SCALES WITH VOLUME (%.2fx from 64 MiB to 4 GiB)\n"
      (float_of_int big_ns /. float_of_int small_ns);
    exit 2
  end;
  if not scrub_ok then begin
    Printf.printf "BENCH_snap: SCRUB REPORTS CORRUPTION ON A CLEAN VOLUME\n";
    exit 2
  end

(* {1 Trace section: chrome://tracing dump of a small fixed workload} *)

let trace_file = ref "BENCH_trace.json"

let trace_section () =
  section "trace: create/write/fsync/rename persist stream";
  let dev = Device.create ~latency:Latency.optane ~size:(1024 * 1024) () in
  Squirrelfs.mkfs dev;
  match Squirrelfs.mount dev with
  | Error e -> failwith ("trace: mount: " ^ Vfs.Errno.to_string e)
  | Ok fs ->
      let r = Obs.Recorder.create () in
      Squirrelfs.Tracing.attach fs r;
      ok (Squirrelfs.create fs "/a");
      ignore (ok (Squirrelfs.write fs "/a" ~off:0 "hello, tracing"));
      ok (Squirrelfs.fsync fs "/a");
      ok (Squirrelfs.rename fs "/a" "/b");
      Squirrelfs.Tracing.detach fs;
      Squirrelfs.unmount fs;
      let events = Obs.Recorder.to_list r in
      Obs.Chrome.to_file !trace_file events;
      Printf.printf "trace: %d events -> %s (%s)\n" (List.length events)
        !trace_file
        (match Obs.Ssu.check events with
        | Ok () -> "SSU checker: clean"
        | Error v -> Format.asprintf "SSU checker: %a" Obs.Ssu.pp_violation v)

let sections =
  [
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig5d", fig5d);
    ("git", git);
    ("tab2", tab2);
    ("tab3", tab3);
    ("model", model);
    ("crash", crash);
    ("bugs", bugs);
    ("mem", mem);
    ("ablate", ablate);
    ("datapath", datapath);
    ("faults", faults);
    ("fuzz", fuzz);
    ("largevol", largevol);
    ("largevol-full", largevol_full);
    ("fuzz-json", fuzz_json);
    ("fuzz-json-quick", fuzz_json_quick);
    ("serve-json", serve_json);
    ("serve-json-quick", serve_json_quick);
    ("snap-json", snap_json);
    ("trace", trace_section);
    ("bechamel", bechamel);
  ]

let () =
  (* [--trace FILE] selects the trace section and redirects its output *)
  let rec parse_trace acc = function
    | "--trace" :: file :: rest ->
        trace_file := file;
        parse_trace ("trace" :: acc) rest
    | x :: rest -> parse_trace (x :: acc) rest
    | [] -> List.rev acc
  in
  let args =
    match parse_trace [] (Array.to_list Sys.argv) with
    | _ :: [] | [ _; "all" ] ->
        (* the fuzz-json* sections are CI artifacts (and fuzz-json repeats
           the 32 MB measurement fuzz already runs); trace writes a file:
           all of them are explicit-only, keeping default output stable *)
        List.filter
          (fun n ->
            (not (String.starts_with ~prefix:"fuzz-json" n))
            && (not (String.starts_with ~prefix:"serve-json" n))
            && (not (String.starts_with ~prefix:"largevol" n))
            && n <> "snap-json" && n <> "trace")
          (List.map fst sections)
    | _ :: rest -> rest
    | [] -> []
  in
  Printf.printf
    "SquirrelFS reproduction benchmarks (simulated Optane latencies)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown section %s (have: %s)\n" name
            (String.concat " " (List.map fst sections)))
    args
