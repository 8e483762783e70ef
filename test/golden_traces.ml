(* Pinned canonical persist traces for the test_obs golden tests.
   To re-pin after a legitimate persist-path change: empty a list,
   run the test, and copy the actual trace it prints. *)

let create : string list =
  [
    "meta inode_table_off=4096 inode_count=15 page_desc_off=6016 page_count=60 data_off=12288 root_ino=1 inode_size=128 desc_size=64 page_size=4096 dentry_size=128 snap_table_off=1024 snap_slots=24 snap_slot_size=128 snap_intent_off=512";
    "snap-inode ino=1 kind=2 links=2 size=0";
    "begin create";
    "begin core.create";
    "store off=12288 len=4096 nt coarse data=zeros:4096";
    "flush off=12288 len=4096";
    "store off=6024 len=8 data=0200000000000000";
    "store off=6032 len=8 data=0000000000000000";
    "flush off=6016 len=64";
    "fence";
    "claim-clean prange off=6016 len=64";
    "store off=6016 len=8 data=0100000000000000";
    "flush off=6016 len=64";
    "fence";
    "claim-clean prange off=6016 len=64";
    "store off=4232 len=8 data=0100000000000000";
    "store off=4240 len=8 data=0100000000000000";
    "store off=4248 len=8 data=0000000000000000";
    "store off=4256 len=8 data=facf9a3b00000000";
    "store off=4264 len=8 data=facf9a3b00000000";
    "store off=4272 len=8 data=facf9a3b00000000";
    "store off=4280 len=8 data=a401000000000000";
    "store off=4288 len=8 data=0000000000000000";
    "store off=4296 len=8 data=0000000000000000";
    "store off=4224 len=8 data=0200000000000000";
    "store off=12288 len=110 data=len:110:fnv:b2dfb8b73cf914a4";
    "store off=4136 len=8 data=facf9a3b00000000";
    "store off=4144 len=8 data=facf9a3b00000000";
    "flush off=4224 len=128";
    "flush off=4096 len=128";
    "flush off=12288 len=128";
    "fence";
    "claim-clean dentry off=12288 len=128";
    "claim-clean inode off=4224 len=128";
    "claim-clean inode off=4096 len=128";
    "store off=12400 len=8 data=0200000000000000";
    "flush off=12288 len=128";
    "fence";
    "claim-clean dentry off=12288 len=128";
    "end core.create";
    "end create";
  ]

let write : string list =
  [
    "meta inode_table_off=4096 inode_count=15 page_desc_off=6016 page_count=60 data_off=12288 root_ino=1 inode_size=128 desc_size=64 page_size=4096 dentry_size=128 snap_table_off=1024 snap_slots=24 snap_slot_size=128 snap_intent_off=512";
    "snap-inode ino=1 kind=2 links=2 size=0";
    "snap-inode ino=2 kind=1 links=1 size=0";
    "snap-page page=0 ino=1 kind=2 offset=0";
    "snap-dentry page=0 slot=0 ino=2";
    "begin write";
    "begin core.write";
    "store off=16384 len=5 nt coarse data=68656c6c6f";
    "flush off=16384 len=5";
    "store off=16389 len=4091 nt coarse data=zeros:4091";
    "flush off=16389 len=4091";
    "store off=6088 len=8 data=0100000000000000";
    "store off=6096 len=8 data=0000000000000000";
    "store off=6080 len=8 data=0200000000000000";
    "flush off=6080 len=64";
    "fence";
    "claim-clean prange off=6080 len=64";
    "store off=4248 len=8 data=0500000000000000";
    "store off=4264 len=8 data=3ed29a3b00000000";
    "flush off=4224 len=128";
    "fence";
    "claim-clean inode off=4224 len=128";
    "end core.write";
    "end write";
  ]

let fsync : string list =
  [
    "meta inode_table_off=4096 inode_count=15 page_desc_off=6016 page_count=60 data_off=12288 root_ino=1 inode_size=128 desc_size=64 page_size=4096 dentry_size=128 snap_table_off=1024 snap_slots=24 snap_slot_size=128 snap_intent_off=512";
    "snap-inode ino=1 kind=2 links=2 size=0";
    "snap-inode ino=2 kind=1 links=1 size=5";
    "snap-page page=0 ino=1 kind=2 offset=0";
    "snap-dentry page=0 slot=0 ino=2";
    "snap-page page=1 ino=2 kind=1 offset=0";
    "begin fsync";
    "end fsync";
  ]

let rename : string list =
  [
    "meta inode_table_off=4096 inode_count=15 page_desc_off=6016 page_count=60 data_off=12288 root_ino=1 inode_size=128 desc_size=64 page_size=4096 dentry_size=128 snap_table_off=1024 snap_slots=24 snap_slot_size=128 snap_intent_off=512";
    "snap-inode ino=1 kind=2 links=2 size=0";
    "snap-inode ino=2 kind=1 links=1 size=0";
    "snap-page page=0 ino=1 kind=2 offset=0";
    "snap-dentry page=0 slot=0 ino=2";
    "begin rename";
    "begin core.rename";
    "store off=12416 len=110 data=len:110:fnv:b06eaf51048abb2f";
    "flush off=12416 len=128";
    "fence";
    "claim-clean dentry off=12416 len=128";
    "store off=12536 len=8 data=0030000000000000";
    "flush off=12416 len=128";
    "fence";
    "claim-clean dentry off=12416 len=128";
    "store off=12528 len=8 data=0200000000000000";
    "flush off=12416 len=128";
    "fence";
    "claim-clean dentry off=12416 len=128";
    "store off=12400 len=8 data=0000000000000000";
    "flush off=12288 len=128";
    "fence";
    "claim-clean dentry off=12288 len=128";
    "store off=12536 len=8 data=0000000000000000";
    "flush off=12416 len=128";
    "fence";
    "claim-clean dentry off=12416 len=128";
    "store off=12288 len=128 nt coarse data=zeros:128";
    "flush off=12288 len=128";
    "flush off=12288 len=128";
    "fence";
    "claim-clean dentry off=12288 len=128";
    "end core.rename";
    "end rename";
  ]
