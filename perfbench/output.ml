(* What a run prints: every metric it measured, by name, with its unit
   and sample count; then, as the last line, the JSON result carrying
   the metrics BENCHMARK.json names for the mode. *)

open Common

(* Metrics every untraced run reports, whatever the workload, with
   their units (BENCHMARK.json lists the same). Wall throughput and
   latency are printed too, but time stolen from a shared two-core host
   moves them too far between runs to bound a change by. *)
let end_to_end =
  [ ("cpu_us_per_op", "us"); ("sim_ns_per_op", "ns"); ("setup_s", "s"); ("heap_mb", "MB") ]

(* Metrics every traced run reports. A layer the workload never calls
   reads 0. *)
let per_layer =
  [
    ("pmem.replay_us_per_op", "us"); ("core.self_us_per_op", "us");
    ("core.minor_words_per_op", "words"); ("pmem.stores_per_op", "count");
    ("pmem.bytes_stored_per_op", "B"); ("pmem.flushes_per_op", "count");
    ("pmem.fences_per_op", "count"); ("pmem.lines_drained_per_fence", "count");
    ("pmem.pending_lines_at_fence", "count"); ("pmem.reads_per_op", "count");
    ("pmem.resident_mb", "MB"); ("typestate.token_uses_per_op", "count");
    ("alloc.page_ns", "ns"); ("alloc.inode_ns", "ns");
    ("probe.create_dense_p50_us", "us"); ("probe.create_sparse_p50_us", "us");
    ("mount.remount_ms", "ms"); ("fsck.check_ms", "ms");
    ("crash.states_per_seq", "count"); ("crash.images_per_fence", "count");
    ("crash.dedup_ratio", "ratio"); ("pmem.crash_views_us", "us");
    ("pmem.view_hash_us", "us"); ("pmem.apply_view_us", "us");
    ("mount.view_mount_us", "us"); ("fsck.check_us", "us");
    ("exec.oracle_self_ms", "ms"); ("parallel.shard_imbalance", "ratio");
    ("engine.retries_per_kop", "count"); ("engine.fallbacks_per_kop", "count");
    ("serve.busy_ratio", "ratio"); ("serve.fair_ratio", "ratio");
    ("gc.minor_collections_per_kop", "count"); ("trace.overhead_ratio", "ratio");
  ]

(* Write the spans of a traced run and print their per-name totals. *)
let spans ~workload ~seed recs =
  ensure_dir state_dir;
  let path =
    Filename.concat state_dir (Printf.sprintf "spans-%s-%d.json" workload seed)
  in
  Spans.write_chrome path recs;
  let n = List.fold_left (fun a s -> a + Spans.length s) 0 recs in
  Printf.printf "spans: %d recorded, the first %d of each domain written to %s\n" n
    Spans.chrome_limit path;
  Printf.printf "%-24s %10s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  let merged = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, c, d, self) ->
          let c0, d0, s0 =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt merged name)
          in
          Hashtbl.replace merged name (c0 + c, d0 + d, s0 + self))
        (Spans.totals s))
    recs;
  List.iter
    (fun (name, (c, d, self)) ->
      Printf.printf "%-24s %10d %12.3f %12.3f\n" name c (float_of_int d /. 1e6)
        (float_of_int self /. 1e6))
    (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) merged []))

let json_float v = Printf.sprintf "%.17g" v

(* Print everything, then the result line. Returns whether the run was
   correct. *)
let finish r ~workload ~trace =
  let ms = List.rev r.metrics in
  Printf.printf "== %s (%s) ==\n" workload (if trace then "traced" else "untraced");
  List.iter
    (fun m ->
      if m.m_n > 0 then
        Printf.printf "%-30s %16.4f %-6s n=%d\n" m.m_name m.m_value m.m_unit m.m_n
      else Printf.printf "%-30s %16.4f %s\n" m.m_name m.m_value m.m_unit)
    ms;
  Printf.printf "%-30s %16.6f ratio n=%d\n" "failed_ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.attempted;
  let wanted = if trace then per_layer else end_to_end in
  let field (name, unit_) =
    match find r name with
    | Some m when m.m_unit <> unit_ ->
        problem r "metric %s measured in %s, declared in %s" name m.m_unit unit_;
        None
    | Some m when not (Float.is_finite m.m_value) ->
        problem r "metric %s is not a finite number" name;
        None
    | Some m -> Some (name, m.m_value, unit_)
    | None when trace -> Some (name, 0., unit_)
    | None ->
        problem r "metric %s was not measured (too few samples)" name;
        None
  in
  let fields =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) u)
      (List.filter_map field wanted)
  in
  if r.attempted < 1 then problem r "no operation was attempted";
  let problems = List.rev r.problems in
  List.iteri (fun i p -> if i < 20 then Printf.printf "PROBLEM: %s\n" p) problems;
  if List.length problems > 20 then
    Printf.printf "PROBLEM: ... and %d more\n" (List.length problems - 20);
  let correct = r.problems = [] && r.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 r.attempted) r.failed (String.concat ", " fields);
  correct
