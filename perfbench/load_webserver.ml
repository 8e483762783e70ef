(* webserver: Filebench's webserver mix on a 1 GiB volume, above the
   64 MiB switch, so the device is sparse and the allocator indexed.
   Twenty thousand files of 0.5-4 KiB (one page each) in a three-level
   tree; requests pick a file by Zipf rank: 80% whole-file reads, 10%
   stats, 10% 256-byte appends to a shared log that is rotated (create the next,
   unlink the one before) every 1 MiB. Few fences: path resolution,
   the index and the read path do the work. *)

open Common

let name = "webserver"
let domains = 1
let volume_bytes = 1024 * 1024 * 1024
let tops = 20
let subs = 10
let files = 20_000
let blob_bytes = 65536
let entry = 256
let rotate_at = 1024 * 1024
let setup_reps = 3
let prefix_steps = 5000

type t = {
  ctx : Sq.Fsctx.t;
  rng : Random.State.t;
  zipf : Workloads.Zipf.t;
  perm : int array;  (** Zipf rank -> file, so hot files spread over the tree *)
  paths : string array;
  blob : string;  (** file contents are slices of this *)
  off : int array;
  size : int array;
  entries : string array;  (** log entry payloads *)
  mutable log_no : int;
  log : Buffer.t;  (** acknowledged content of the current log *)
  mutable prev_log : string;  (** ... and of the one before it *)
}

let path i = Printf.sprintf "/w%d/s%d/f%d" (i mod tops) (i / tops mod subs) i
let log_path n = Printf.sprintf "/log/l%d" n
let ctx t = t.ctx
let content t i = String.sub t.blob t.off.(i) t.size.(i)

(* [got] equals file [i]'s content, compared in place: the check must
   cost little next to the read it checks. *)
let is_content t i got =
  let n = t.size.(i) and off = t.off.(i) in
  String.length got = n
  &&
  let rec go k =
    if k + 8 <= n then
      String.get_int64_ne got k = String.get_int64_ne t.blob (off + k) && go (k + 8)
    else k >= n || (got.[k] = t.blob.[off + k] && go (k + 1))
  in
  go 0

let setup ~seed =
  let ctx = new_volume ~size:volume_bytes in
  let rng = Random.State.make [| 0x3EB; seed |] in
  let blob = String.init blob_bytes (fun _ -> Char.chr (Random.State.int rng 256)) in
  let size = Array.init files (fun _ -> 512 + Random.State.int rng 3585) in
  let off = Array.map (fun s -> Random.State.int rng (blob_bytes - s)) size in
  let perm = Array.init files Fun.id in
  for i = files - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let entries =
    Array.init 16 (fun _ -> String.init entry (fun _ -> Char.chr (97 + Random.State.int rng 26)))
  in
  let t =
    {
      ctx; rng; zipf = Workloads.Zipf.create ~theta:0.9 ~n:files rng; perm;
      paths = Array.init files path; blob;
      off; size; entries; log_no = 0; log = Buffer.create rotate_at; prev_log = "";
    }
  in
  ok_exn "mkdir" (Sq.mkdir ctx "/log");
  ok_exn "create log" (Sq.create ctx (log_path 0));
  for a = 0 to tops - 1 do
    ok_exn "mkdir" (Sq.mkdir ctx (Printf.sprintf "/w%d" a));
    for b = 0 to subs - 1 do
      ok_exn "mkdir" (Sq.mkdir ctx (Printf.sprintf "/w%d/s%d" a b))
    done
  done;
  for i = 0 to files - 1 do
    ok_exn "create" (Sq.create ctx t.paths.(i));
    ignore (ok_exn "write" (Sq.write ctx t.paths.(i) ~off:0 (content t i)))
  done;
  t

let rotate t l r =
  let next = t.log_no + 1 in
  match call l Create (fun () -> Sq.create t.ctx (log_path next)) with
  | Error e -> fail r ("create " ^ log_path next) e
  | Ok () ->
      (if t.log_no > 0 then
         match call l Unlink (fun () -> Sq.unlink t.ctx (log_path (t.log_no - 1))) with
         | Ok () -> ()
         | Error e -> fail r ("unlink " ^ log_path (t.log_no - 1)) e);
      t.prev_log <- Buffer.contents t.log;
      Buffer.clear t.log;
      t.log_no <- next

let append t l r =
  if Buffer.length t.log >= rotate_at then rotate t l r;
  let e = t.entries.(Random.State.int t.rng (Array.length t.entries)) in
  let p = log_path t.log_no in
  match call l Write (fun () -> Sq.write t.ctx p ~off:(Buffer.length t.log) e) with
  | Ok n when n = entry -> Buffer.add_string t.log e
  | Ok n ->
      r.failed <- r.failed + 1;
      problem r "append %s: %d of %d bytes" p n entry
  | Error err -> fail r ("append " ^ p) err

let step t l r =
  let i = t.perm.(Workloads.Zipf.next t.zipf) in
  let roll = Random.State.int t.rng 100 in
  let p = t.paths.(i) in
  if roll < 80 then
    request l "read" (fun () ->
        match call l Read (fun () -> Sq.read t.ctx p ~off:0 ~len:t.size.(i)) with
        | Ok got when is_content t i got -> ()
        | Ok _ ->
            r.failed <- r.failed + 1;
            problem r "read %s: content differs from what was written" p
        | Error e -> fail r ("read " ^ p) e)
  else if roll < 90 then
    request l "stat" (fun () ->
        match call l Stat (fun () -> Sq.stat t.ctx p) with
        | Ok st when st.Vfs.Fs.size = t.size.(i) -> ()
        | Ok st ->
            r.failed <- r.failed + 1;
            problem r "stat %s: size %d, written %d" p st.Vfs.Fs.size t.size.(i)
        | Error e -> fail r ("stat " ^ p) e)
  else request l "append" (fun () -> append t l r)

let prefix t r l = steps prefix_steps (step t) r l
let piece t r lats ~deadline = steps_until deadline (step t) r lats.(0)
let tidy _ _ = ()

let verify t r ctx2 =
  let check p want = if not (check_file r ctx2 p want) then r.failed <- r.failed + 1 in
  for i = 0 to files - 1 do
    check t.paths.(i) (content t i)
  done;
  check (log_path t.log_no) (Buffer.contents t.log);
  if t.log_no > 0 then check (log_path (t.log_no - 1)) t.prev_log

let layers _ _ _ = ()
