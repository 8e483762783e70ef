module Device = Pmem.Device

module Kind = struct
  type t = File | Dir | Symlink

  let to_int = function File -> 1 | Dir -> 2 | Symlink -> 3

  let of_int = function
    | 1 -> Some File
    | 2 -> Some Dir
    | 3 -> Some Symlink
    | _ -> None

  let pp ppf = function
    | File -> Format.pp_print_string ppf "file"
    | Dir -> Format.pp_print_string ppf "dir"
    | Symlink -> Format.pp_print_string ppf "symlink"
end

let any_nonzero dev base len =
  let b = Device.read dev ~off:base ~len in
  let rec go i = i < len && (Bytes.get b i <> '\000' || go (i + 1)) in
  go 0

(* {1 Record checksums}

   Only fields that are immutable once the record is initialized are
   covered ("sealed"): the SSU ordering rules guarantee the whole init
   group — including the CRC — is durable before the record is committed,
   so at {e every} legal crash point a committed record carries a valid
   checksum and a mismatch can only mean media corruption. Mutable fields
   (link counts, sizes, times, the commit backpointers themselves) change
   via independent 8-byte atomic stores and are excluded; they are covered
   by the device-level line ECC + scrubber instead. *)

let crc_ns = 40 (* simulated software cost of one record checksum *)

let crc_of_ranges dev ~base ranges =
  List.fold_left
    (fun crc (off, len) ->
      let b = Device.read_meta dev ~off:(base + off) ~len in
      Faults.Crc32.digest_bytes ~crc b ~off:0 ~len)
    0 ranges

module Inode = struct
  let f_ino = 0
  let f_kind = 8
  let f_links = 16
  let f_size = 24
  let f_atime = 32
  let f_mtime = 40
  let f_ctime = 48
  let f_mode = 56
  let f_uid = 64
  let f_gid = 72
  let f_crc = 120

  (* ino, kind, mode, uid, gid + the zero padding; links/size/times are
     mutable and excluded. *)
  let sealed_ranges = [ (0, 16); (56, 64); (124, 4) ]

  type t = {
    ino : int;
    kind : Kind.t;
    links : int;
    size : int;
    atime : int;
    mtime : int;
    ctime : int;
    mode : int;
    uid : int;
    gid : int;
  }

  let decode dev ~base =
    let ino = Device.read_u64 dev (base + f_ino) in
    if ino = 0 then None
    else
      match Kind.of_int (Device.read_u64 dev (base + f_kind)) with
      | None -> None
      | Some kind ->
          Some
            {
              ino;
              kind;
              links = Device.read_u64 dev (base + f_links);
              size = Device.read_u64 dev (base + f_size);
              atime = Device.read_u64 dev (base + f_atime);
              mtime = Device.read_u64 dev (base + f_mtime);
              ctime = Device.read_u64 dev (base + f_ctime);
              mode = Device.read_u64 dev (base + f_mode);
              uid = Device.read_u64 dev (base + f_uid);
              gid = Device.read_u64 dev (base + f_gid);
            }

  let is_allocated dev ~base = any_nonzero dev base Geometry.inode_size

  let seal dev ~base =
    let crc = crc_of_ranges dev ~base sealed_ranges in
    Device.store_u32 dev (base + f_crc) crc;
    Device.charge dev crc_ns

  let verify dev ~base =
    Device.charge dev crc_ns;
    match crc_of_ranges dev ~base sealed_ranges with
    | crc -> crc = Device.read_u32 dev (base + f_crc)
    | exception Device.Media_error _ -> false
end

module Dentry = struct
  let f_name = 0
  let f_ino = 112
  let f_rename_ptr = 120

  type t = { name : string; ino : int; rename_ptr : int }

  let decode dev ~base =
    if not (any_nonzero dev base Geometry.dentry_size) then None
    else
      let raw =
        Bytes.to_string (Device.read dev ~off:(base + f_name) ~len:Geometry.name_max)
      in
      let name =
        match String.index_opt raw '\000' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      Some
        {
          name;
          ino = Device.read_u64 dev (base + f_ino);
          rename_ptr = Device.read_u64 dev (base + f_rename_ptr);
        }

  let is_allocated dev ~base = any_nonzero dev base Geometry.dentry_size
end

module Desc = struct
  let f_ino = 0
  let f_kind = 8
  let f_offset = 16
  let f_replaces = 24
  let f_crc = 56

  (* kind, offset + zero padding; ino (the commit backpointer) and
     replaces (cleared on COW completion) are mutable and excluded. *)
  let sealed_ranges = [ (8, 16); (32, 24); (60, 4) ]

  type page_kind = Data | Dirpage

  type t = { ino : int; kind : page_kind; offset : int; replaces : int }

  let kind_to_int = function Data -> 1 | Dirpage -> 2
  let kind_of_int = function 1 -> Some Data | 2 -> Some Dirpage | _ -> None

  let decode dev ~base =
    if not (any_nonzero dev base Geometry.desc_size) then None
    else
      match kind_of_int (Device.read_u64 dev (base + f_kind)) with
      | None -> None
      | Some kind ->
          Some
            {
              ino = Device.read_u64 dev (base + f_ino);
              kind;
              offset = Device.read_u64 dev (base + f_offset);
              replaces = Device.read_u64 dev (base + f_replaces);
            }

  let is_allocated dev ~base = any_nonzero dev base Geometry.desc_size

  let seal dev ~base =
    let crc = crc_of_ranges dev ~base sealed_ranges in
    Device.store_u32 dev (base + f_crc) crc;
    Device.charge dev crc_ns

  let verify dev ~base =
    Device.charge dev crc_ns;
    match crc_of_ranges dev ~base sealed_ranges with
    | crc -> crc = Device.read_u32 dev (base + f_crc)
    | exception Device.Media_error _ -> false
end

module Superblock = struct
  let magic = 0x53_51_52_4C_46_53 (* "SQRLFS" *)

  let f_magic = 0
  let f_version = 8
  let f_device_size = 16
  let f_inode_count = 24
  let f_page_count = 32
  let f_inode_table_off = 40
  let f_page_desc_off = 48
  let f_data_off = 56
  let f_clean = 64
  let f_flags = 72 (* bit 0: metadata checksums enabled *)
  let f_crc = 80

  (* everything immutable after mkfs; the clean flag is excluded. *)
  let sealed_ranges = [ (0, 64); (72, 8) ]

  type t = { geometry : Geometry.t; clean : bool; csum : bool }

  let write ?(csum = false) dev (g : Geometry.t) ~clean =
    let put f v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      Device.store_nt dev ~off:f (Bytes.to_string b)
    in
    put f_magic magic;
    put f_version 1;
    put f_device_size g.device_size;
    put f_inode_count g.inode_count;
    put f_page_count g.page_count;
    put f_inode_table_off g.inode_table_off;
    put f_page_desc_off g.page_desc_off;
    put f_data_off g.data_off;
    put f_clean (if clean then 1 else 0);
    if csum then begin
      put f_flags 1;
      put f_crc (crc_of_ranges dev ~base:0 sealed_ranges);
      Device.charge dev crc_ns
    end;
    Device.fence dev

  let verify dev =
    Device.charge dev crc_ns;
    match crc_of_ranges dev ~base:0 sealed_ranges with
    | crc -> crc = Device.read_u32 dev f_crc
    | exception Device.Media_error _ -> false

  let read dev =
    (* the layout mkfs would give a device of this size *)
    match Geometry.compute ~device_size:(Device.size dev) with
    | exception Invalid_argument _ ->
        (* too small for any volume, the superblock itself included *)
        None
    | expected ->
        if Device.read_u64 dev f_magic <> magic then None
        else
          let geometry =
            {
              Geometry.device_size = Device.read_u64 dev f_device_size;
              inode_count = Device.read_u64 dev f_inode_count;
              page_count = Device.read_u64 dev f_page_count;
              inode_table_off = Device.read_u64 dev f_inode_table_off;
              page_desc_off = Device.read_u64 dev f_page_desc_off;
              data_off = Device.read_u64 dev f_data_off;
            }
          in
          (* a truncated or extended image: the stored layout no longer
             matches the device, so its tables may run past the end *)
          if geometry <> expected then None
          else
            Some
              {
                geometry;
                clean = Device.read_u64 dev f_clean = 1;
                csum = Device.read_u64 dev f_flags land 1 = 1;
              }

  let set_clean dev clean =
    Device.store_u64 dev f_clean (if clean then 1 else 0);
    Device.persist dev ~off:f_clean ~len:8
end
