(* fileserver: Filebench's fileserver mix on a 32 MiB volume, below the
   64 MiB switch, so the device is dense and the allocator legacy. A
   fixed population of files, each request one of delete+recreate (with
   a 4 KiB write), 4 KiB append, whole-file read or stat, equally
   likely, on a uniformly chosen file. Recreates reset a file and
   appends stop at 16 KiB, so creates balance deletes and the volume
   never fills. Every call fences. *)

open Common

let name = "fileserver"
let domains = 1
let volume_bytes = 32 * 1024 * 1024
let dirs = 32
let files = 1024
let block = 4096
let max_blocks = 4
let setup_reps = 5
let prefix_steps = 2000

(* The model of what was acknowledged is kept cheap next to the calls
   it checks: which payload each block of a file holds, not the bytes. *)
type t = {
  ctx : Sq.Fsctx.t;
  rng : Random.State.t;
  paths : string array;
  blocks : string array;  (** 4 KiB payloads drawn from the seed *)
  picks : int array;  (** [i * max_blocks + k]: payload of file [i]'s block [k] *)
  nblocks : int array;  (** acknowledged blocks of each file *)
}

let path i = Printf.sprintf "/d%d/f%d" (i mod dirs) i
let ctx t = t.ctx
let size t i = t.nblocks.(i) * block

(* [got] equals file [i]'s acknowledged content, compared in place. *)
let is_content t i got =
  let same_block k =
    let b = t.blocks.(t.picks.((i * max_blocks) + k)) and pos = k * block in
    let rec go j =
      j >= block
      || (String.get_int64_ne got (pos + j) = String.get_int64_ne b j && go (j + 8))
    in
    go 0
  in
  let rec all k = k >= t.nblocks.(i) || (same_block k && all (k + 1)) in
  String.length got = size t i && all 0

let content t i =
  String.concat ""
    (List.init t.nblocks.(i) (fun k -> t.blocks.(t.picks.((i * max_blocks) + k))))

let write_block t l r i =
  let k = t.nblocks.(i) in
  let b = Random.State.int t.rng (Array.length t.blocks) in
  let p = t.paths.(i) in
  match call l Write (fun () -> Sq.write t.ctx p ~off:(k * block) t.blocks.(b)) with
  | Ok n when n = block ->
      t.picks.((i * max_blocks) + k) <- b;
      t.nblocks.(i) <- k + 1
  | Ok n ->
      r.failed <- r.failed + 1;
      problem r "write %s: %d of %d bytes" p n block
  | Error e -> fail r ("write " ^ p) e

let setup ~seed =
  let ctx = new_volume ~size:volume_bytes in
  let rng = Random.State.make [| 0xF11E; seed |] in
  let blocks =
    Array.init 16 (fun _ -> String.init block (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let t =
    {
      ctx; rng; paths = Array.init files path; blocks;
      picks = Array.make (files * max_blocks) 0; nblocks = Array.make files 0;
    }
  in
  for d = 0 to dirs - 1 do
    ok_exn "mkdir" (Sq.mkdir ctx (Printf.sprintf "/d%d" d))
  done;
  let scratch = report () and l = lat () in
  for i = 0 to files - 1 do
    ok_exn "create" (Sq.create ctx t.paths.(i));
    write_block t l scratch i
  done;
  if scratch.failed > 0 then failwith "fileserver setup: write failed";
  t

let recreate t l r i =
  let p = t.paths.(i) in
  (match call l Unlink (fun () -> Sq.unlink t.ctx p) with
  | Ok () -> t.nblocks.(i) <- 0
  | Error e -> fail r ("unlink " ^ p) e);
  match call l Create (fun () -> Sq.create t.ctx p) with
  | Ok () -> write_block t l r i
  | Error e -> fail r ("create " ^ p) e

let step t l r =
  let i = Random.State.int t.rng files in
  let p = t.paths.(i) in
  match Random.State.int t.rng 4 with
  | 0 -> request l "recreate" (fun () -> recreate t l r i)
  | 1 ->
      request l "append" (fun () ->
          if t.nblocks.(i) >= max_blocks then recreate t l r i else write_block t l r i)
  | 2 ->
      request l "read" (fun () ->
          match call l Read (fun () -> Sq.read t.ctx p ~off:0 ~len:(size t i)) with
          | Ok got when is_content t i got -> ()
          | Ok _ ->
              r.failed <- r.failed + 1;
              problem r "read %s: content differs from the acknowledged writes" p
          | Error e -> fail r ("read " ^ p) e)
  | _ ->
      request l "stat" (fun () ->
          match call l Stat (fun () -> Sq.stat t.ctx p) with
          | Ok st when st.Vfs.Fs.size = size t i -> ()
          | Ok st ->
              r.failed <- r.failed + 1;
              problem r "stat %s: size %d, acknowledged %d" p st.Vfs.Fs.size (size t i)
          | Error e -> fail r ("stat " ^ p) e)

let prefix t r l = steps prefix_steps (step t) r l
let piece t r lats ~deadline = steps_until deadline (step t) r lats.(0)
let tidy _ _ = ()

let verify t r ctx2 =
  for i = 0 to files - 1 do
    if not (check_file r ctx2 t.paths.(i) (content t i)) then r.failed <- r.failed + 1
  done

(* The cost of the size switch's backing choice: creates on this
   geometry, backed dense as the switch picks and forced sparse. *)
let layers _ r _ =
  let create_p50 sparse =
    let dev = Device.create ~latency:Pmem.Latency.optane ~sparse ~size:volume_bytes () in
    Sq.mkfs dev;
    let ctx = ok_exn "mount" (Sq.mount dev) in
    ok_exn "mkdir" (Sq.mkdir ctx "/p");
    Stats.median
      (Array.init 1500 (fun i ->
           let t0 = now () in
           ok_exn "create" (Sq.create ctx (Printf.sprintf "/p/f%d" i));
           float_of_int (now () - t0) /. 1e3))
  in
  put r ~n:1500 "probe.create_dense_p50_us" "us" (create_p50 false);
  put r ~n:1500 "probe.create_sparse_p50_us" "us" (create_p50 true)
