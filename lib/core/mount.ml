module Device = Pmem.Device
module Geometry = Layout.Geometry
module R = Layout.Records

type recovery_stats = {
  recovered : bool;
  completed_renames : int;
  rolled_back_renames : int;
  orphan_inodes : int;
  orphan_pages : int;
  orphan_dentries : int;
  fixed_link_counts : int;
  quarantined_inodes : int;
  quarantined_pages : int;
  degraded : bool;
}

let empty_stats =
  {
    recovered = false;
    completed_renames = 0;
    rolled_back_renames = 0;
    orphan_inodes = 0;
    orphan_pages = 0;
    orphan_dentries = 0;
    fixed_link_counts = 0;
    quarantined_inodes = 0;
    quarantined_pages = 0;
    degraded = false;
  }

(* Domain-local: each domain of the parallel fuzz runner mounts on its
   own private device, so "the last mount's stats" is a per-domain
   notion — a plain global ref would race across domains. *)
let stats_key = Domain.DLS.new_key (fun () -> ref empty_stats)
let last_stats () = !(Domain.DLS.get stats_key)
let set_stats s = Domain.DLS.get stats_key := s

(* DRAM-index maintenance cost per inserted entry (RB-tree/hashtable
   insert plus allocation), charged to the simulated clock so mount time
   scales with utilization — the paper attributes most of a full mount to
   "allocating space for and managing the volatile indexes" (§5.5). *)
let index_insert_ns = 700

(* Recovery bookkeeping per scanned object: orphan tracking and true
   link-count accounting (§5.5 "constructs additional structures"). *)
let recovery_obj_ns = 400

let mkfs ?(csum = false) dev =
  let geo = Geometry.compute ~device_size:(Device.size dev) in
  (* Zero the metadata tables so everything reads as free. *)
  Device.zero dev ~off:geo.inode_table_off
    ~len:(geo.inode_count * Geometry.inode_size);
  Device.zero dev ~off:geo.page_desc_off
    ~len:(geo.page_count * Geometry.desc_size);
  Device.fence dev;
  (* Root directory inode. *)
  let b = Geometry.inode_off geo ~ino:Geometry.root_ino in
  Device.store_u64 dev (b + R.Inode.f_ino) Geometry.root_ino;
  Device.store_u64 dev (b + R.Inode.f_kind) (R.Kind.to_int R.Kind.Dir);
  Device.store_u64 dev (b + R.Inode.f_links) 2;
  Device.store_u64 dev (b + R.Inode.f_mode) 0o755;
  if csum then R.Inode.seal dev ~base:b;
  Device.persist dev ~off:b ~len:Geometry.inode_size;
  R.Superblock.write ~csum dev geo ~clean:true

(* {1 Scan data} *)

type raw_dentry = {
  rd_dir : int;
  rd_page : int;
  rd_slot : int;
  rd_name : string;
  rd_ino : int;
  rd_rptr : int;
}

let dentry_base geo ~page ~slot = Geometry.dentry_off geo ~page ~slot
let page_units size = (size + Geometry.page_size - 1) / Geometry.page_size

let persist_u64 dev off v =
  Device.store_u64 dev off v;
  Device.persist dev ~off ~len:8

let zero_persist dev ~off ~len =
  Device.zero dev ~off ~len;
  Device.fence dev

module Q = Faults.Quarantine

(* A rename pointer read from a possibly-corrupt/torn record: validate
   before trusting it to locate a dentry. *)
let dentry_loc_opt (geo : Geometry.t) off =
  if
    off >= geo.data_off
    && off < geo.data_off + (geo.page_count * Geometry.page_size)
    && (off - geo.data_off) mod Geometry.dentry_size = 0
  then Some (Geometry.dentry_loc_of_off geo off)
  else None

(* Rebuild all volatile state; if [recover], also repair the volume. *)
let rebuild (ctx : Fsctx.t) ~recover =
  let dev = ctx.dev and geo = ctx.geo in
  let st = ref { empty_stats with recovered = recover } in
  let bump f = st := f !st in

  (* Pass 1: inode table. A quarantined inode's record is untrustworthy:
     keep it visible (so lookups resolve and return EIO) but never treat
     it as garbage; synthesize attrs if the record no longer decodes. *)
  let attrs : (int, R.Inode.t) Hashtbl.t = Hashtbl.create 1024 in
  let garbage_inodes = ref [] in
  (Scan.inodes dev geo @@ fun ino ->
   let base = Geometry.inode_off geo ~ino in
   match R.Inode.decode dev ~base with
   | Some r when r.ino = ino -> Hashtbl.replace attrs ino r
   | (Some _ | None) when Q.mem_ino ctx.quar ino ->
       Hashtbl.replace attrs ino
         {
           R.Inode.ino;
           kind = R.Kind.File;
           links = 1;
           size = 0;
           atime = 0;
           mtime = 0;
           ctime = 0;
           mode = 0o644;
           uid = 0;
           gid = 0;
         }
   | Some _ | None ->
       if R.Inode.is_allocated dev ~base then
         garbage_inodes := ino :: !garbage_inodes);

  (* Pass 2: page descriptor table. Only backed pages are decoded — an
     unbacked descriptor is durably zero (neither allocated nor
     garbage), so skipping it changes nothing. *)
  let desc_pages_rev = ref [] in
  let desc_raw : (int, R.Desc.t) Hashtbl.t = Hashtbl.create 1024 in
  (Scan.pages dev geo @@ fun page ->
   desc_pages_rev := page :: !desc_pages_rev;
   match R.Desc.decode dev ~base:(Geometry.desc_off geo ~page) with
   | Some d -> Hashtbl.replace desc_raw page d
   | None -> ());
  let desc_pages = List.rev !desc_pages_rev in
  (* Resolve replace pointers (crash-atomic COW data writes): a committed
     replacement supersedes the page it points at; recovery frees the old
     page and clears the pointer. An uncommitted replacement (ino = 0)
     falls into the garbage path below and is rolled back. *)
  let killed_pages : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun page ->
      match Hashtbl.find_opt desc_raw page with
      | Some { R.Desc.ino; replaces; _ }
        when ino <> 0
             && replaces <> 0
             && replaces - 1 < geo.page_count
             && not (Q.mem_page ctx.quar page) ->
          let old = replaces - 1 in
          Hashtbl.replace killed_pages old ();
          if recover then begin
            zero_persist dev
              ~off:(Geometry.desc_off geo ~page:old)
              ~len:Geometry.desc_size;
            persist_u64 dev
              (Geometry.desc_off geo ~page + R.Desc.f_replaces)
              0;
            bump (fun s -> { s with orphan_pages = s.orphan_pages + 1 })
          end
      | Some _ | None -> ())
    desc_pages;
  let owned : (int, (R.Desc.page_kind * int * int) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  (* owner ino -> (kind, offset, page) list *)
  let garbage_descs = ref [] in
  List.iter
    (fun page ->
      let base = Geometry.desc_off geo ~page in
      if Q.mem_page ctx.quar page then () (* neither owned nor garbage *)
      else
        match Hashtbl.find_opt desc_raw page with
        | Some { ino; kind; offset; replaces = _ }
          when ino <> 0 && not (Hashtbl.mem killed_pages page) ->
            let l =
              match Hashtbl.find_opt owned ino with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace owned ino l;
                  l
            in
            l := (kind, offset, page) :: !l
        | Some { ino; _ } when ino <> 0 -> () (* superseded by a replacer *)
        | Some _ -> garbage_descs := page :: !garbage_descs
        | None ->
            if R.Desc.is_allocated dev ~base then
              garbage_descs := page :: !garbage_descs)
    desc_pages;

  (* Pass 3: directory pages -> raw dentries. *)
  let raw : raw_dentry list ref = ref [] in
  let dir_pages_of : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  (* dir ino -> (offset, page) list *)
  Hashtbl.iter
    (fun ino l ->
      match Hashtbl.find_opt attrs ino with
      | Some r when r.kind = R.Kind.Dir && not (Q.mem_ino ctx.quar ino) ->
          let pages =
            List.filter_map
              (function
                | R.Desc.Dirpage, offset, page -> Some (offset, page)
                | R.Desc.Data, _, _ -> None)
              !l
          in
          Hashtbl.replace dir_pages_of ino pages;
          List.iter
            (fun (_, page) ->
              for slot = 0 to Geometry.dentries_per_page - 1 do
                let base = dentry_base geo ~page ~slot in
                match R.Dentry.decode dev ~base with
                | None -> ()
                | Some { name; ino = target; rename_ptr } ->
                    raw :=
                      {
                        rd_dir = ino;
                        rd_page = page;
                        rd_slot = slot;
                        rd_name = name;
                        rd_ino = target;
                        rd_rptr = rename_ptr;
                      }
                      :: !raw
              done)
            pages
      | Some _ | None -> ())
    owned;

  if recover then begin
    (* orphan-tracking and link-count structures (§5.5) *)
    Device.charge dev (Hashtbl.length attrs * recovery_obj_ns);
    Device.charge dev (List.length !raw * recovery_obj_ns)
  end;

  (* Recovery: an extra scan pass over directory pages looking for rename
     pointers (Table 2 attributes recovery-mount cost partly to this). *)
  if recover then
    Hashtbl.iter
      (fun _ pages ->
        List.iter
          (fun (_, page) ->
            for slot = 0 to Geometry.dentries_per_page - 1 do
              ignore
                (Device.read_u64 dev
                   (dentry_base geo ~page ~slot + R.Dentry.f_rename_ptr))
            done)
          pages)
      dir_pages_of;

  (* Pass 3b: resolve rename pointers. A committed dentry with a rename
     pointer logically invalidates the source it points at; recovery
     completes the rename physically. An uncommitted dentry is rolled
     back. *)
  let killed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if d.rd_ino <> 0 && d.rd_rptr <> 0 then begin
        match dentry_loc_opt geo d.rd_rptr with
        | None ->
            (* garbage pointer (torn/corrupt record): never a legal crash
               state, so just clear it when repairing *)
            if recover then
              persist_u64 dev
                (dentry_base geo ~page:d.rd_page ~slot:d.rd_slot
                + R.Dentry.f_rename_ptr)
                0
        | Some (sp, ss) ->
        let sbase = dentry_base geo ~page:sp ~slot:ss in
        let src_ino = Device.read_u64 dev (sbase + R.Dentry.f_ino) in
        let committed = src_ino = d.rd_ino || src_ino = 0 in
        (* For a destination replacing an existing entry, the atomic point
           is its ino changing to the source's: before that it still holds
           the old target and the source stays live. *)
        if committed then Hashtbl.replace killed (sp, ss) ();
        if recover then
          if committed then begin
            (* complete: invalidate + zero src, then clear the pointer *)
            if src_ino <> 0 then persist_u64 dev (sbase + R.Dentry.f_ino) 0;
            zero_persist dev ~off:sbase ~len:Geometry.dentry_size;
            persist_u64 dev
              (dentry_base geo ~page:d.rd_page ~slot:d.rd_slot
              + R.Dentry.f_rename_ptr)
              0;
            bump (fun s ->
                { s with completed_renames = s.completed_renames + 1 })
          end
          else begin
            (* pre-commit overwrite: roll back by clearing the pointer *)
            persist_u64 dev
              (dentry_base geo ~page:d.rd_page ~slot:d.rd_slot
              + R.Dentry.f_rename_ptr)
              0;
            bump (fun s ->
                { s with rolled_back_renames = s.rolled_back_renames + 1 })
          end
      end)
    !raw;
  let uncommitted, committed =
    List.partition
      (fun d -> d.rd_ino = 0 || not (Vfs.Path.valid_name d.rd_name))
      !raw
  in
  let committed =
    List.filter (fun d -> not (Hashtbl.mem killed (d.rd_page, d.rd_slot)))
      committed
  in
  if recover then
    List.iter
      (fun d ->
        (* crash mid-create or a rolled-back rename destination *)
        zero_persist dev
          ~off:(dentry_base geo ~page:d.rd_page ~slot:d.rd_slot)
          ~len:Geometry.dentry_size;
        if d.rd_rptr <> 0 then
          bump (fun s ->
              { s with rolled_back_renames = s.rolled_back_renames + 1 })
        else
          bump (fun s -> { s with orphan_dentries = s.orphan_dentries + 1 }))
      uncommitted;

  (* Pass 3c: reachability from the root. *)
  let entries_of_dir : (int, raw_dentry list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun d ->
      let l =
        match Hashtbl.find_opt entries_of_dir d.rd_dir with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace entries_of_dir d.rd_dir l;
            l
      in
      l := d :: !l)
    committed;
  let reachable : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  if Hashtbl.mem attrs Geometry.root_ino then begin
    Hashtbl.replace reachable Geometry.root_ino ();
    Queue.push Geometry.root_ino queue
  end;
  while not (Queue.is_empty queue) do
    let dir = Queue.pop queue in
    match Hashtbl.find_opt entries_of_dir dir with
    | None -> ()
    | Some l ->
        List.iter
          (fun d ->
            match Hashtbl.find_opt attrs d.rd_ino with
            | None -> () (* dangling: recovery's link fix won't index it *)
            | Some r ->
                if not (Hashtbl.mem reachable d.rd_ino) then begin
                  Hashtbl.replace reachable d.rd_ino ();
                  if r.kind = R.Kind.Dir then Queue.push d.rd_ino queue
                end)
          !l
  done;

  (* Trim pages owned by reachable files beyond their size (space leaked
     by a crash between backpointer commit and size update). *)
  let trimmed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  if recover then
    Hashtbl.iter
      (fun ino r ->
        if Hashtbl.mem reachable ino && r.R.Inode.kind <> R.Kind.Dir then
          match Hashtbl.find_opt owned ino with
          | None -> ()
          | Some l ->
              let keep = page_units r.R.Inode.size in
              let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
              List.iter
                (function
                  | R.Desc.Data, offset, page
                    when offset >= keep || Hashtbl.mem seen offset ->
                      zero_persist dev
                        ~off:(Geometry.desc_off geo ~page)
                        ~len:Geometry.desc_size;
                      Hashtbl.replace trimmed (ino, page) ();
                      bump (fun s ->
                          { s with orphan_pages = s.orphan_pages + 1 })
                  | R.Desc.Data, offset, _ -> Hashtbl.replace seen offset ()
                  | R.Desc.Dirpage, _, _ -> ())
                (List.sort compare !l))
      attrs;

  (* Recovery: free orphans. *)
  if recover then begin
    let zero_inode ino =
      zero_persist dev
        ~off:(Geometry.inode_off geo ~ino)
        ~len:Geometry.inode_size;
      bump (fun s -> { s with orphan_inodes = s.orphan_inodes + 1 })
    in
    let zero_desc page =
      zero_persist dev
        ~off:(Geometry.desc_off geo ~page)
        ~len:Geometry.desc_size;
      bump (fun s -> { s with orphan_pages = s.orphan_pages + 1 })
    in
    List.iter zero_inode !garbage_inodes;
    List.iter zero_desc !garbage_descs;
    let unreachable =
      Hashtbl.fold
        (fun ino _ acc ->
          if Hashtbl.mem reachable ino then acc else ino :: acc)
        attrs []
    in
    List.iter
      (fun ino ->
        (* unreachable inode: free it and everything it owns *)
        (match Hashtbl.find_opt owned ino with
        | None -> ()
        | Some l -> List.iter (fun (_, _, page) -> zero_desc page) !l);
        zero_inode ino;
        Hashtbl.remove attrs ino)
      unreachable;
    (* pages owned by inos that are not valid at all *)
    Hashtbl.iter
      (fun ino l ->
        if not (Hashtbl.mem attrs ino) || not (Hashtbl.mem reachable ino) then
          List.iter
            (fun (_, _, page) ->
              if
                Device.read_u64 dev
                  (Geometry.desc_off geo ~page + R.Desc.f_ino)
                <> 0
              then zero_desc page)
            !l)
      owned
  end;

  (* Recovery: recompute link counts. *)
  if recover then begin
    let true_links : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let add ino n =
      Hashtbl.replace true_links ino
        ((match Hashtbl.find_opt true_links ino with Some c -> c | None -> 0)
        + n)
    in
    Hashtbl.iter (fun ino _ -> add ino 0) reachable;
    add Geometry.root_ino 2;
    List.iter
      (fun d ->
        if Hashtbl.mem reachable d.rd_ino then
          match Hashtbl.find_opt attrs d.rd_ino with
          | Some r when r.kind = R.Kind.Dir ->
              add d.rd_ino 2;
              add d.rd_dir 1
          | Some _ -> add d.rd_ino 1
          | None -> ())
      committed;
    Hashtbl.iter
      (fun ino want ->
        match Hashtbl.find_opt attrs ino with
        | Some r when Hashtbl.mem reachable ino && r.links <> want ->
            persist_u64 dev
              (Geometry.inode_off geo ~ino + R.Inode.f_links)
              want;
            bump (fun s ->
                { s with fixed_link_counts = s.fixed_link_counts + 1 })
        | Some _ | None -> ())
      true_links
  end;

  (* Build the volatile index from the (possibly repaired) state. *)
  let inserts = ref 0 in
  Hashtbl.iter
    (fun ino r ->
      if Hashtbl.mem reachable ino then begin
        incr inserts;
        if Q.mem_ino ctx.quar ino then
          (* resolvable so that operations can answer EIO; no pages *)
          Index.add_file ctx.index ino
        else
        match r.R.Inode.kind with
        | R.Kind.Dir ->
            Index.add_dir ctx.index ino;
            (match Hashtbl.find_opt dir_pages_of ino with
            | None -> ()
            | Some pages ->
                List.iter
                  (fun (_, page) ->
                    incr inserts;
                    Index.add_dir_page ctx.index ~dir:ino page)
                  (List.sort compare pages))
        | R.Kind.File | R.Kind.Symlink -> (
            Index.add_file ctx.index ino;
            match Hashtbl.find_opt owned ino with
            | None -> ()
            | Some l ->
                List.iter
                  (function
                    | R.Desc.Data, offset, page ->
                        if not (Hashtbl.mem trimmed (ino, page)) then begin
                          incr inserts;
                          Index.add_file_page ctx.index ~ino ~offset page
                        end
                    | R.Desc.Dirpage, _, _ -> ())
                  !l)
      end)
    attrs;
  List.iter
    (fun d ->
      if Hashtbl.mem reachable d.rd_dir && Hashtbl.mem reachable d.rd_ino then begin
        incr inserts;
        Index.insert_dentry ctx.index ~dir:d.rd_dir d.rd_name ~ino:d.rd_ino
          { Index.page = d.rd_page; slot = d.rd_slot }
      end)
    committed;
  Device.charge dev (!inserts * index_insert_ns);

  (* Allocator: anything with a fully-zero record is free. It starts
     fully free (one run, O(1)) and {e reserves} the live objects the
     scan found, so this step — like the scan passes above — costs
     time proportional to utilization, not volume size (the paper's
     §5 near-constant mount). *)
  let reserved = ref 0 in
  (Scan.inodes dev geo @@ fun ino ->
   if
     ino <> Geometry.root_ino
     && R.Inode.is_allocated dev ~base:(Geometry.inode_off geo ~ino)
   then begin
     Alloc.reserve_inode ctx.alloc ino;
     incr reserved
   end);
  (Scan.pages dev geo @@ fun page ->
   if R.Desc.is_allocated dev ~base:(Geometry.desc_off geo ~page) then begin
     Alloc.reserve_page ctx.alloc page;
     incr reserved
   end);
  Device.charge dev (!reserved * 40);
  set_stats !st

(* {1 Snapshot recovery}

   Two jobs, both before any other recovery decision:

   - A {e committed} rollback intent means a crash interrupted an atomic
     rollback after its commit point: replay the redo log (idempotent —
     a crash during replay just replays again on the next mount), then
     clear the intent. The whole chain is read into memory first because
     log entries may target the log pages' own lines.
   - Nonzero but {e uncommitted} snapshot slots (or intent) are crash
     remnants of an interrupted creation: roll them back by zeroing, so
     every surviving slot is committed with a valid CRC — "the old table
     or the new entry, never a torn one". *)
let snap_recover dev geo =
  let module S = Layout.Snaptab in
  (match S.Intent.decode dev with
  | Some { slot = _; log_page; count } when S.Intent.verify dev ->
      let entries = ref [] in
      let page = ref log_page and remaining = ref count in
      while !page >= 0 && !page < geo.Geometry.page_count && !remaining > 0 do
        let base = Geometry.page_off geo ~page:!page in
        let n = min (Device.read_u64 dev (base + S.Log.f_count)) !remaining in
        for i = 0 to n - 1 do
          entries := S.Log.read_entry dev ~page_base:base i :: !entries
        done;
        remaining := !remaining - n;
        page := Device.read_u64 dev (base + S.Log.f_next) - 1
      done;
      List.iter
        (fun (off, data) ->
          Device.store dev ~off data;
          Device.flush dev ~off ~len:(String.length data))
        !entries;
      Device.fence dev;
      S.Intent.clear dev;
      Device.fence dev
  | Some _ ->
      (* committed but CRC-corrupt: never a legal crash state (media
         damage); replay would restore garbage, so drop the intent *)
      S.Intent.clear dev;
      Device.fence dev
  | None ->
      if not (S.Intent.is_free dev) then begin
        S.Intent.clear dev;
        Device.fence dev
      end);
  let cleared = ref false in
  for slot = 0 to S.slots - 1 do
    if S.Slot.state dev ~slot <> 1 && not (S.Slot.is_free dev ~slot) then begin
      S.Slot.clear dev ~slot;
      cleared := true
    end
  done;
  if !cleared then Device.fence dev

(* Media pre-pass (csum volumes only): verify record checksums before
   any recovery decision. Corrupt committed records are quarantined; the
   volume then mounts degraded, meaning {e no} destructive recovery runs
   — a repair pass working from corrupt metadata could free live data. *)
let media_prepass (ctx : Fsctx.t) =
  let dev = ctx.dev and geo = ctx.geo in
  (* Inode suspects: allocated records whose sealed-field CRC fails.
     Unbacked records are durably zero — unallocated — so the CRC scans
     only walk backed spans. *)
  let suspects = ref [] in
  (Scan.inodes dev geo @@ fun ino ->
   let base = Geometry.inode_off geo ~ino in
   if R.Inode.is_allocated dev ~base && not (R.Inode.verify dev ~base) then
     suspects := ino :: !suspects);
  (* Committed page descriptors with a bad CRC: kind/offset can no longer
     be trusted, so quarantine the page and the file that owns it. *)
  (Scan.pages dev geo @@ fun page ->
   let base = Geometry.desc_off geo ~page in
   let ino = Device.read_u64 dev (base + R.Desc.f_ino) in
   if ino <> 0 && not (R.Desc.verify dev ~base) then begin
     Q.add ctx.quar ~reason:"page descriptor CRC mismatch" (Q.Page page);
     if ino >= 1 && ino <= geo.inode_count then
       Q.add ctx.quar ~reason:"owns page with corrupt descriptor" (Q.Ino ino)
   end);
  (* A suspect inode is quarantined only if a committed dentry (or being
     the root) references it: an unreferenced suspect is indistinguishable
     from a half-initialized crash orphan, and the ordinary garbage path
     already handles those without data loss. *)
  match !suspects with
  | [] -> ()
  | suspects ->
      let suspect = Hashtbl.create 8 in
      List.iter (fun i -> Hashtbl.replace suspect i ()) suspects;
      let referenced = Hashtbl.create 8 in
      (Scan.pages dev geo @@ fun page ->
       let base = Geometry.desc_off geo ~page in
       if
         Device.read_u64 dev (base + R.Desc.f_ino) <> 0
         && not (Q.mem_page ctx.quar page)
       then
         match R.Desc.decode dev ~base with
         | Some { kind = R.Desc.Dirpage; _ } ->
             for slot = 0 to Geometry.dentries_per_page - 1 do
               let target =
                 Device.read_u64 dev
                   (dentry_base geo ~page ~slot + R.Dentry.f_ino)
               in
               if Hashtbl.mem suspect target then
                 Hashtbl.replace referenced target ()
             done
         | Some _ | None -> ());
      List.iter
        (fun ino ->
          if ino = Geometry.root_ino || Hashtbl.mem referenced ino then
            Q.add ctx.quar ~reason:"inode CRC mismatch" (Q.Ino ino))
        suspects

let do_mount ~cpus ~force_recover dev =
  match R.Superblock.read dev with
  | None -> Error Vfs.Errno.EINVAL
  | Some { geometry = geo; clean; csum } ->
      if csum && not (R.Superblock.verify dev) then Error Vfs.Errno.EIO
      else begin
        let ctx = Fsctx.make ~csum ~dev ~geo ~cpus () in
        if (not clean) || force_recover then snap_recover dev geo;
        if csum then media_prepass ctx;
        let degraded = not (Q.is_empty ctx.quar) in
        rebuild ctx ~recover:(((not clean) || force_recover) && not degraded);
        let qi, qp =
          List.fold_left
            (fun (i, p) (e : Q.entry) ->
              match e.obj with
              | Q.Ino _ -> (i + 1, p)
              | Q.Page _ -> (i, p + 1)
              | Q.Superblock -> (i, p))
            (0, 0) (Q.to_list ctx.quar)
        in
        set_stats
          {
            (last_stats ()) with
            quarantined_inodes = qi;
            quarantined_pages = qp;
            degraded;
          };
        R.Superblock.set_clean dev false;
        Ok ctx
      end

let mount ?(cpus = 4) dev = do_mount ~cpus ~force_recover:false dev
let mount_recover ?(cpus = 4) dev = do_mount ~cpus ~force_recover:true dev

let unmount (ctx : Fsctx.t) = R.Superblock.set_clean ctx.dev true
