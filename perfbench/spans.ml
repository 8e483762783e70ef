(* In-memory spans for the traced run.

   The benchmark opens a span around each call it makes into a layer;
   a span has a name, a start and end (wall ns), the span open when it
   began (its parent) and the request it serves. Spans stay in memory
   and are written out once, when the run ends. A span's self time is
   its duration minus the part of it that its children cover. One
   recorder belongs to one domain. *)

type t = {
  clock : unit -> int;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable name_id : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
  mutable stack : int list;
}

let create ?(clock = fun () -> Int64.to_int (Monotonic_clock.now ())) () =
  let z () = Array.make 4096 0 in
  {
    clock;
    names = Hashtbl.create 32;
    name_of = [||];
    name_id = z ();
    start = z ();
    stop = z ();
    parent = z ();
    req = z ();
    n = 0;
    stack = [];
  }

let length t = t.n

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name_id <- g t.name_id;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      i

let enter t ~req name =
  if t.n = Array.length t.start then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name_id.(id) <- intern t name;
  t.parent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.req.(id) <- req;
  t.stack <- id :: t.stack;
  t.start.(id) <- t.clock ();
  t.stop.(id) <- t.start.(id);
  id

let leave t id =
  t.stop.(id) <- t.clock ();
  match t.stack with
  | top :: rest when top = id -> t.stack <- rest
  | _ -> invalid_arg "Spans.leave: not the innermost open span"

let with_span t ~req name f =
  let id = enter t ~req name in
  Fun.protect ~finally:(fun () -> leave t id) f

let duration t i = t.stop.(i) - t.start.(i)

(* Self time of every span: its duration minus the union of its
   children's intervals clipped to its own. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let ivs =
        List.sort compare
          (List.filter_map
             (fun c ->
               let a = max lo t.start.(c) and b = min hi t.stop.(c) in
               if b > a then Some (a, b) else None)
             kids.(i))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, lo) ivs
      in
      hi - lo - covered)

(* Per span name: (count, total ns, total self ns), sorted by name. *)
let totals t =
  let self = self_times t in
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let k = t.name_id.(i) in
    let c, d, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc k) in
    Hashtbl.replace acc k (c + 1, d + duration t i, s + self.(i))
  done;
  List.sort compare
    (Hashtbl.fold (fun k (c, d, s) l -> (t.name_of.(k), c, d, s) :: l) acc [])

let total_self t name =
  List.fold_left
    (fun acc (n, _, _, s) -> if n = name then acc + s else acc)
    0 (totals t)

(* Spans of each recorder that [write_chrome] writes out. *)
let chrome_limit = 100_000

(* Chrome trace-event JSON (one complete event per span; [tid] is the
   recorder index), openable in chrome://tracing or Perfetto. Only the
   first [chrome_limit] spans of each recorder are written. *)
let write_chrome path (recs : t list) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iteri
    (fun tid t ->
      for i = 0 to min t.n chrome_limit - 1 do
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
          t.name_of.(t.name_id.(i)) tid
          (float_of_int t.start.(i) /. 1e3)
          (float_of_int (duration t i) /. 1e3)
          i t.parent.(i) t.req.(i)
      done)
    recs;
  output_string oc "\n]}\n"
