(* serve: many Zipf client sessions (far more than domains) through
   [Serve.Engine.submit] on one worker domain per core over one shared
   device, after [Serve.Loadgen.populate]. Closed loop: sessions are
   dealt to the domains, and each domain runs its sessions in turn, one
   request each, the session waiting for its reply before it sends the
   next. Only this workload exercises the lock shards, revalidation
   retries, whole-FS fallbacks, the shared-device mutex and
   multi-domain GC. *)

open Common
module Engine = Serve.Engine
module Req = Serve.Req
module Session = Serve.Session

let name = "serve"
let domains = max 1 (min 2 (Domain.recommended_domain_count ()))
let clients = 256
let volume_mb = 1024
let prefix_requests = 4000
let setup_reps = 9

let lcfg ~seed =
  {
    Serve.Loadgen.default with
    Serve.Loadgen.clients;
    jobs = domains;
    seed;
    dirs = 16;
    files = 1024;
    device_mb = volume_mb;
  }

let scfg (c : Serve.Loadgen.cfg) =
  {
    Session.dirs = c.Serve.Loadgen.dirs;
    files = c.Serve.Loadgen.files;
    theta = c.Serve.Loadgen.theta;
    seed = c.Serve.Loadgen.seed;
  }

type t = {
  cfg : Serve.Loadgen.cfg;
  ctx : Sq.Fsctx.t;
  eng : Engine.t;
  sessions : Session.t array;
  mine : Session.t list array;  (** session [k] belongs to domain [k mod domains] *)
  mutable next_stamp : int;  (** the stamp the next reply must carry, at the least *)
  mutable mutations : (int * int * Req.req) list;
      (** (stamp, universe file, request) of every acknowledged write or
          truncate of a universe file *)
  errs : (string, int) Hashtbl.t;  (** replies with an errno, by request kind *)
  mutable retries : int;  (** engine retries and fallbacks, untraced pieces *)
  mutable fallbacks : int;
}

let ctx t = t.ctx

let setup ~seed =
  let c = lcfg ~seed in
  let ctx = new_volume ~size:(volume_mb * 1024 * 1024) in
  Serve.Loadgen.populate ctx c;
  let eng = Engine.create ctx in
  let sessions = Array.init clients (fun id -> Session.create (scfg c) ~id) in
  let mine =
    Array.init domains (fun d ->
        List.filter (fun s -> Session.id s mod domains = d) (Array.to_list sessions))
  in
  {
    cfg = c; ctx; eng; sessions; mine; next_stamp = 0; mutations = [];
    errs = Hashtbl.create 8; retries = 0; fallbacks = 0;
  }

(* The universe file a data request mutates, if any: paths are
   [/d<i>/f<k>], handle tags [h<client>_<k>]. *)
let target (req : Req.req) =
  let after c s =
    match String.rindex_opt s c with
    | Some i -> int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  match req with
  | Req.Write (p, _, _) | Req.Truncate (p, _) -> after 'f' p
  | Req.Write_h (tag, _, _) -> after '_' tag
  | _ -> None

let kind : Req.req -> kind = function
  | Req.Create _ -> Create
  | Req.Write _ | Req.Write_h _ -> Write
  | Req.Read _ | Req.Read_h _ -> Read
  | Req.Stat _ -> Stat
  | Req.Unlink _ -> Unlink
  | _ -> Other

(* Replies a request of the session mix may legitimately get. *)
let permitted = function Errno.ENOENT | Errno.EEXIST -> true | _ -> false

(* One domain's tallies over a piece. *)
type acc = {
  mutable stamps : int list;
  mutable muts : (int * int * Req.req) list;
  mutable bad : string list;  (** unexpected replies *)
  errs : (string, int) Hashtbl.t;
}

let acc () = { stamps = []; muts = []; bad = []; errs = Hashtbl.create 8 }

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* One request of session [s]: generate, submit, check the reply. *)
let one_exn t a l (s : Session.t) =
  let req = Session.next s in
  let seq = Session.seq s and client = Session.id s in
  let rp =
    request l "request" (fun () ->
        call ~span:"engine.submit" l (kind req) (fun () ->
            Engine.submit t.eng ~client ~seq req))
  in
  a.stamps <- rp.Req.rp_stamp :: a.stamps;
  if rp.Req.rp_client <> client || rp.Req.rp_seq <> seq then
    a.bad <- "reply for another request" :: a.bad;
  match rp.Req.rp_result with
  | Ok _ -> (
      match target req with
      | Some k -> a.muts <- (rp.Req.rp_stamp, k, req) :: a.muts
      | None -> ())
  | Error e ->
      let k = Req.name req ^ " " ^ Errno.to_string e in
      bump a.errs k 1;
      if not (permitted e) then a.bad <- k :: a.bad

let one t a l s =
  try one_exn t a l s with e -> a.bad <- ("exception " ^ Printexc.to_string e) :: a.bad

(* Fold the tallies of a piece into the report and the instance. Exactly
   one reply per request: the piece's stamps are one run of consecutive
   integers, each seen once, following the previous piece's. *)
let absorb r t accs =
  List.iter
    (fun a ->
      t.mutations <- List.rev_append a.muts t.mutations;
      Hashtbl.iter (bump t.errs) a.errs;
      List.iter
        (fun k ->
          r.failed <- r.failed + 1;
          problem r "unexpected reply: %s" k)
        a.bad)
    accs;
  let all = Array.of_list (List.concat_map (fun a -> a.stamps) accs) in
  Array.sort compare all;
  let from = t.next_stamp in
  if not (Array.for_all Fun.id (Array.mapi (fun k s -> s = from + k) all)) then
    problem r "replies do not match requests one to one (%d replies from stamp %d)"
      (Array.length all) from;
  t.next_stamp <- from + Array.length all

(* The prefix: sessions in turn on one domain, so it is deterministic. *)
let prefix t r l =
  let a = acc () in
  for n = 0 to prefix_requests - 1 do
    one t a l t.sessions.(n mod clients)
  done;
  absorb r t [ a ]

(* Each domain runs its sessions in turn until [deadline]. *)
let piece t r (lats : lat array) ~deadline =
  let dev = t.ctx.Sq.Fsctx.dev in
  let r0 = Engine.retry_count t.eng and f0 = Engine.fallback_count t.eng in
  Device.set_shared dev true;
  let worker d () =
    let a = acc () in
    while now () < deadline do
      List.iter (fun s -> one t a lats.(d) s) t.mine.(d)
    done;
    a
  in
  let others = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  let a0 = worker 0 () in
  let accs = a0 :: List.map Domain.join others in
  Device.set_shared dev false;
  if lats.(0).spans = None then begin
    t.retries <- t.retries + Engine.retry_count t.eng - r0;
    t.fallbacks <- t.fallbacks + Engine.fallback_count t.eng - f0
  end;
  absorb r t accs

(* Sessions leave scratch names behind ([c<client>_...]: created and
   renamed files, links, symlinks), an inode for about one request in
   eleven: a 20 s run at 38k requests/s would use up the 1 GiB volume's
   64k inodes and fail with ENOSPC. Between pieces, with no domain
   running, they are removed, so the volume never fills however fast
   the program gets. Later requests naming them get ENOENT, which the
   mix permits. *)
let tidy t r =
  for d = 0 to t.cfg.Serve.Loadgen.dirs - 1 do
    let dir = Session.path_of_dir d in
    match Sq.readdir t.ctx dir with
    | Error e -> fail r ("readdir " ^ dir) e
    | Ok names ->
        List.iter
          (fun name ->
            if String.starts_with ~prefix:"c" name then
              let p = dir ^ "/" ^ name in
              match Sq.unlink t.ctx p with
              | Ok () -> ()
              | Error e -> fail r ("unlink " ^ p) e)
          names
  done

(* Replay the acknowledged mutations of each universe file in stamp
   order (stamps follow the per-inode order) and compare the result
   with the remounted durable image. Also print the replies that
   carried an errno. *)
let verify t r ctx2 =
  let c = t.cfg in
  let model = Array.make c.Serve.Loadgen.files Bytes.empty in
  let resize k n =
    let b = Bytes.make n '\000' in
    Bytes.blit model.(k) 0 b 0 (min n (Bytes.length model.(k)));
    model.(k) <- b
  in
  let write k off data =
    let len = String.length data in
    if off + len > Bytes.length model.(k) then resize k (off + len);
    Bytes.blit_string data 0 model.(k) off len
  in
  List.iter
    (fun (_, k, req) ->
      match req with
      | Req.Write (_, off, data) | Req.Write_h (_, off, data) -> write k off data
      | Req.Truncate (_, n) -> resize k n
      | _ -> ())
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) t.mutations);
  Array.iteri
    (fun k b ->
      let p = Session.path_of_file (scfg c) k in
      if not (check_file r ctx2 p (Bytes.to_string b)) then r.failed <- r.failed + 1)
    model;
  List.iter
    (fun (k, n) -> Printf.printf "reply %-24s %d\n" k n)
    (List.sort compare (Hashtbl.fold (fun k n l -> (k, n) :: l) t.errs []))

let layers t r (ph : Driver.phase) =
  let ops = float_of_int (Driver.phase_ops ph) in
  put r "engine.retries_per_kop" "count" (float_of_int t.retries *. 1e3 /. ops);
  put r "engine.fallbacks_per_kop" "count" (float_of_int t.fallbacks *. 1e3 /. ops);
  (* time inside [submit], summed over domains *)
  let busy_us =
    Array.fold_left
      (fun acc (l : lat) -> Array.fold_left ( +. ) acc (Stats.Samples.to_array l.all))
      0. ph.lats
  in
  put r "serve.busy_ratio" "ratio" (busy_us /. 1e6 /. (float_of_int domains *. ph.wall));
  let per = Array.map (fun (l : lat) -> float_of_int l.ops) ph.lats in
  put r "serve.fair_ratio" "ratio"
    (Array.fold_left min infinity per /. Array.fold_left max 0. per)
