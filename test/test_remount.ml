(* Audit of device statistics and allocator state across repeated mount
   cycles (ISSUE 2 satellite: the fuzzer remounts thousands of times and
   would amplify any drift).

   Audit findings, pinned as regressions here:

   - [Pmem.Stats] counters are DEVICE-lifetime, not mount-lifetime:
     nothing resets them on mount/unmount (by design — simulated time and
     traffic are properties of the medium). [Stats.reset] exists for
     explicit use, and every [Device.of_image] starts a fresh device with
     zeroed counters, which is what gives each crash-image probe its own
     clean accounting.
   - The volatile allocator rebuilt by each mount agrees exactly with the
     allocator state the previous mount reached, and with what Fsck
     derives, across arbitrarily many cycles: no free-inode or free-page
     drift, in either direction. *)

module Device = Pmem.Device
module Sq = Squirrelfs
module Alloc = Squirrelfs.Alloc

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected %s" (Vfs.Errno.to_string e)

(* One busy cycle: churn the namespace, record free counts, unmount,
   remount, and require the rebuilt allocator to agree. *)
let test_free_lists_agree_across_cycles () =
  let dev = Device.create ~size:(512 * 1024) () in
  Sq.mkfs dev;
  let fs = ref (ok (Sq.mount dev)) in
  let baseline_inodes = Alloc.free_inode_count (!fs).Sq.Fsctx.alloc in
  let baseline_pages = Alloc.free_page_count (!fs).Sq.Fsctx.alloc in
  for cycle = 0 to 24 do
    let fs0 = !fs in
    let p = Printf.sprintf "/f%d" cycle in
    ok (Sq.create fs0 p);
    ignore (ok (Sq.write fs0 p ~off:0 (String.make 5000 'x')) : int);
    ok (Sq.mkdir fs0 (Printf.sprintf "/d%d" cycle));
    if cycle mod 2 = 1 then begin
      (* delete the previous cycle's file on odd cycles: both grow-only
         and shrink paths cross remounts *)
      ok (Sq.unlink fs0 (Printf.sprintf "/f%d" (cycle - 1)));
      ok (Sq.rmdir fs0 (Printf.sprintf "/d%d" (cycle - 1)))
    end;
    let live_inodes = Alloc.free_inode_count fs0.Sq.Fsctx.alloc in
    let live_pages = Alloc.free_page_count fs0.Sq.Fsctx.alloc in
    Sq.unmount fs0;
    let fs1 = ok (Sq.mount dev) in
    let rebuilt_inodes = Alloc.free_inode_count fs1.Sq.Fsctx.alloc in
    let rebuilt_pages = Alloc.free_page_count fs1.Sq.Fsctx.alloc in
    if rebuilt_inodes <> live_inodes then
      Alcotest.failf "cycle %d: free inodes drifted: live %d, rebuilt %d" cycle
        live_inodes rebuilt_inodes;
    if rebuilt_pages <> live_pages then
      Alcotest.failf "cycle %d: free pages drifted: live %d, rebuilt %d" cycle
        live_pages rebuilt_pages;
    Alcotest.(check (list string))
      (Printf.sprintf "cycle %d: fsck clean" cycle)
      [] (Sq.Fsck.check fs1);
    fs := fs1
  done;
  (* Delete everything: inodes return exactly to the baseline; pages
     return to the baseline minus the dir pages the root directory
     allocated and retains (directories keep their dentry pages once
     allocated — only rmdir of the directory itself frees them, and "/"
     is never removed). The retained amount must be tiny and stable. *)
  let fs0 = !fs in
  List.iter
    (fun name ->
      let p = "/" ^ name in
      let st = ok (Sq.stat fs0 p) in
      if st.Vfs.Fs.kind = Vfs.Fs.Dir then ok (Sq.rmdir fs0 p)
      else ok (Sq.unlink fs0 p))
    (ok (Sq.readdir fs0 "/"));
  Sq.unmount fs0;
  let fs1 = ok (Sq.mount dev) in
  Alcotest.(check int) "free inodes back to baseline" baseline_inodes
    (Alloc.free_inode_count fs1.Sq.Fsctx.alloc);
  let end_pages = Alloc.free_page_count fs1.Sq.Fsctx.alloc in
  if end_pages > baseline_pages || baseline_pages - end_pages > 2 then
    Alcotest.failf "free pages drifted: baseline %d, end %d (expected at most \
                    2 root dir pages retained)" baseline_pages end_pages;
  Alcotest.(check (list string)) "fsck clean at the end" [] (Sq.Fsck.check fs1);
  (* further empty remounts: no progressive drift *)
  Sq.unmount fs1;
  let fs2 = ok (Sq.mount dev) in
  Alcotest.(check int) "stable across empty remounts" end_pages
    (Alloc.free_page_count fs2.Sq.Fsctx.alloc)

(* Stats audit finding 1: counters accumulate across mounts — a remount
   ADDS its rebuild-scan traffic; nothing silently resets. *)
let test_stats_accumulate_across_mounts () =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.mkfs dev;
  let reads_after_mkfs = (Device.stats dev).Pmem.Stats.reads in
  let fs = ok (Sq.mount dev) in
  let reads_after_mount = (Device.stats dev).Pmem.Stats.reads in
  Alcotest.(check bool) "mount scan adds reads" true
    (reads_after_mount > reads_after_mkfs);
  ok (Sq.create fs "/a");
  Sq.unmount fs;
  let before = (Device.stats dev).Pmem.Stats.reads in
  let fs = ok (Sq.mount dev) in
  Alcotest.(check bool) "remount does not reset counters" true
    ((Device.stats dev).Pmem.Stats.reads > before);
  Sq.unmount fs;
  (* explicit reset is available and total *)
  Pmem.Stats.reset (Device.stats dev);
  Alcotest.(check int) "explicit reset zeroes reads" 0
    (Device.stats dev).Pmem.Stats.reads;
  Alcotest.(check int) "explicit reset zeroes stores" 0
    (Device.stats dev).Pmem.Stats.stores

(* Stats audit finding 2: crash-image devices ([Device.of_image]) start
   with fresh zeroed counters and do not alias the source device's — this
   is what keeps per-probe accounting in the fuzzer independent. *)
let test_of_image_stats_fresh () =
  let dev = Device.create ~size:(256 * 1024) () in
  Sq.mkfs dev;
  let fs = ok (Sq.mount dev) in
  ok (Sq.create fs "/a");
  let src_stores = (Device.stats dev).Pmem.Stats.stores in
  Alcotest.(check bool) "source saw stores" true (src_stores > 0);
  let d2 = Device.of_image (Device.image_durable dev) in
  Alcotest.(check int) "fresh device: zero stores" 0 (Device.stats d2).Pmem.Stats.stores;
  Alcotest.(check int) "fresh device: zero reads" 0 (Device.stats d2).Pmem.Stats.reads;
  let _ = ok (Sq.mount d2) in
  Alcotest.(check bool) "probe traffic lands on the copy" true
    ((Device.stats d2).Pmem.Stats.reads > 0);
  Alcotest.(check int) "source unchanged by the probe" src_stores
    (Device.stats dev).Pmem.Stats.stores

(* {1 Short and truncated images}

   Regression: a 0-byte image raised [Invalid_argument] out of mount
   (the superblock read ran off the device), and an image truncated to
   half its length mounted and fsck'd "consistent" although its stored
   geometry covered twice the device. *)

(* A 16 MiB volume holding one file, cut to [len] bytes. *)
let short_images =
  lazy
    (let dev = Device.create ~size:(16 * 1024 * 1024) () in
     Sq.mkfs dev;
     let fs = ok (Sq.mount dev) in
     ok (Sq.create fs "/a");
     ignore (ok (Sq.write fs "/a" ~off:0 "hello") : int);
     Sq.unmount fs;
     let img = Device.image_durable dev in
     List.map
       (fun (name, len) -> (name, Bytes.sub img 0 len))
       [ ("empty", 0); ("100 bytes", 100); ("half", 8 * 1024 * 1024) ])

let test_short_images_refused () =
  List.iter
    (fun (name, img) ->
      let dev = Device.of_image img in
      Alcotest.(check bool)
        (name ^ ": no superblock")
        true
        (Layout.Records.Superblock.read dev = None);
      (match Sq.Mount.mount dev with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: mount accepted a short image" name);
      match Sq.Mount.mount_recover dev with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: recovery mount accepted a short image" name)
    (Lazy.force short_images)

(* The same images through the [sqfs] command line: [fsck] and [tree]
   must exit 1 with a mount error that names why the image was refused,
   never 125 (uncaught exception) and never 0 ("consistent"). *)
let test_short_images_cli () =
  let sqfs =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sqfs.exe"
  in
  let reason = function
    | "empty" -> "too small for a volume (0 bytes)"
    | "100 bytes" -> "too small for a volume (100 bytes)"
    | _ ->
        "superblock geometry is for a 16777216-byte device, image is 8388608 \
         bytes (truncated?)"
  in
  List.iter
    (fun (name, img) ->
      let file = Filename.temp_file "short" ".img" in
      let out = Filename.temp_file "short" ".out" in
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc img);
      List.iter
        (fun cmd ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s > %s 2>&1" (Filename.quote sqfs) cmd
                 (Filename.quote file) (Filename.quote out))
          in
          let text = In_channel.with_open_bin out In_channel.input_all in
          Alcotest.(check int) (Printf.sprintf "%s: %s exit code" name cmd) 1 code;
          Alcotest.(check string)
            (Printf.sprintf "%s: %s names the reason" name cmd)
            (Printf.sprintf "mount %s: %s\n" file (reason name))
            text)
        [ "fsck"; "tree" ];
      Sys.remove file;
      Sys.remove out)
    (Lazy.force short_images)

let () =
  Alcotest.run "remount"
    [
      ( "alloc",
        [
          Alcotest.test_case "free lists agree across 25 cycles" `Quick
            test_free_lists_agree_across_cycles;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters accumulate (no reset on remount)" `Quick
            test_stats_accumulate_across_mounts;
          Alcotest.test_case "of_image starts fresh" `Quick test_of_image_stats_fresh;
        ] );
      ( "short",
        [
          Alcotest.test_case "mount refuses short images" `Quick
            test_short_images_refused;
          Alcotest.test_case "sqfs fsck and tree fail" `Quick
            test_short_images_cli;
        ] );
    ]
