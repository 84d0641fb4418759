open Asym_sim
open Asym_nvm
open Asym_rdma

(* Operation-log record types >= 250 are framework-internal (lock-ahead
   records, §6.1); data-structure operations use 0..249. *)
let optype_lock_acquire = 254
let optype_lock_release = 253
let internal_optype ty = ty >= 250

type ds_record = {
  ds : Types.ds_id;
  ds_name : string;
  root : Types.addr;
  lock : Types.addr;
  sn : Types.addr;
  conflict : Conflict.t;
}

type session = {
  sid : Types.session_id;
  mutable lpn : int;  (* ring-relative replay cursor, persisted *)
  mutable opn_covered : int64;  (* persisted *)
  mutable oplog_tail : int;  (* ring-relative GC cursor, persisted *)
  mutable memlog_head : int;  (* volatile append cursor (truth is ring bytes) *)
  mutable oplog_head : int;  (* volatile *)
  mutable next_opnum : int64;  (* volatile *)
  op_index : (int64 * int) Queue.t;  (* opnum -> ring offset, volatile *)
}

type session_status = Session_consistent | Session_torn_tail

type t = {
  bname : string;
  dev : Device.t;
  lat : Latency.t;
  nic_tl : Timeline.t;
  cpu_tl : Timeline.t;
  mutable layout : Layout.t;
  mutable naming : Naming.t;
  mutable alloc : Backend_alloc.t;
  mutable meta_cursor : int;
  sessions : session option array;
  ds_by_id : (Types.ds_id, ds_record) Hashtbl.t;
  ds_by_name : (string, ds_record) Hashtbl.t;
  locks : (Types.addr, Timeline.t) Hashtbl.t;
  mutable mirror_list : Mirror.t list;
  mutable next_ds : int;
  mutable crashed : bool;
  mutable n_rpcs : int;
  mutable n_replayed_txs : int;
  mutable n_replayed_entries : int;
  mutable n_dup_replays : int;
}

let rpc_base_ns = 400

let name t = t.bname
let device t = t.dev
let nic t = t.nic_tl
let cpu t = t.cpu_tl
let latency t = t.lat
let layout t = t.layout
let mirrors t = t.mirror_list
let is_crashed t = t.crashed
let replayed_txs t = t.n_replayed_txs
let replayed_entries t = t.n_replayed_entries
let dup_replays_absorbed t = t.n_dup_replays
let rpcs_served t = t.n_rpcs
let used_slabs t = Backend_alloc.used_slabs t.alloc

let check_alive t = if t.crashed then raise (Verbs.Failure_detected t.bname)

(* -- persistence helpers ---------------------------------------------- *)

(* Replicate a write to all mirrors, charging the back-end NIC. *)
let repl t ~at ~addr b =
  List.iter (fun m -> Mirror.replicate m ~from_nic:t.nic_tl ~at ~addr b) t.mirror_list

(* Functional-only mirror update for bytes that travel piggybacked inside
   an already-charged replica message (e.g. data-area entries contained in
   a forwarded transaction log). *)
let repl_uncharged t ~addr b =
  List.iter (fun m -> Device.write (Mirror.device m) ~addr b) t.mirror_list

(* Zero a range on the back-end and, uncharged, on every mirror. *)
let zero_everywhere t ~addr ~len =
  Device.zero t.dev ~addr ~len;
  List.iter (fun m -> Device.zero (Mirror.device m) ~addr ~len) t.mirror_list

let write_word t ~at addr v =
  Device.write_u64 t.dev ~addr v;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  ignore at;
  repl_uncharged t ~addr b

(* -- session slots ------------------------------------------------------ *)

let slot_lpn = 0
let slot_opn = 8
let slot_tail = 16
let slot_inuse = 24

let persist_session t ~at s =
  let base = Layout.session_slot t.layout ~session:s.sid in
  write_word t ~at (base + slot_lpn) (Int64.of_int s.lpn);
  write_word t ~at (base + slot_opn) s.opn_covered;
  write_word t ~at (base + slot_tail) (Int64.of_int s.oplog_tail)

let load_session t sid =
  let base = Layout.session_slot t.layout ~session:sid in
  let inuse = Device.read_u64 t.dev ~addr:(base + slot_inuse) in
  if inuse = 0L then None
  else
    Some
      {
        sid;
        lpn = Int64.to_int (Device.read_u64 t.dev ~addr:(base + slot_lpn));
        opn_covered = Device.read_u64 t.dev ~addr:(base + slot_opn);
        oplog_tail = Int64.to_int (Device.read_u64 t.dev ~addr:(base + slot_tail));
        memlog_head = 0;
        oplog_head = 0;
        next_opnum = 1L;
        op_index = Queue.create ();
      }

let get_session t sid =
  match t.sessions.(sid) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Backend %s: no such session %d" t.bname sid)

(* -- construction ------------------------------------------------------- *)

let create ?(name = "backend") ?(max_sessions = 8) ?(memlog_cap = 4 * 1024 * 1024)
    ?(oplog_cap = 2 * 1024 * 1024) ?(slab_size = 4096) ~capacity lat =
  let dev = Device.create ~name:(name ^ ".nvm") ~capacity lat in
  let layout = Layout.compute ~memlog_cap ~oplog_cap ~slab_size ~capacity ~max_sessions () in
  Layout.store dev layout;
  let naming = Naming.create dev ~base:layout.Layout.naming_base ~len:layout.Layout.naming_len in
  let alloc = Backend_alloc.create dev layout in
  Device.write_u64 dev ~addr:layout.Layout.meta_base 0L;
  (* Mark all session slots unused. *)
  for i = 0 to max_sessions - 1 do
    Device.zero dev ~addr:(Layout.session_slot layout ~session:i) ~len:Layout.session_slot_len
  done;
  {
    bname = name;
    dev;
    lat;
    nic_tl = Timeline.create ~name:(name ^ ".nic") ();
    cpu_tl = Timeline.create ~name:(name ^ ".cpu") ();
    layout;
    naming;
    alloc;
    meta_cursor = 0;
    sessions = Array.make max_sessions None;
    ds_by_id = Hashtbl.create 16;
    ds_by_name = Hashtbl.create 16;
    locks = Hashtbl.create 16;
    mirror_list = [];
    next_ds = 1;
    crashed = false;
    n_rpcs = 0;
    n_replayed_txs = 0;
    n_replayed_entries = 0;
    n_dup_replays = 0;
  }

let attach_mirror t m =
  if Device.capacity (Mirror.device m) <> Device.capacity t.dev then
    invalid_arg "Backend.attach_mirror: capacity mismatch";
  (* Bring the mirror's image up to date with a full synchronization. *)
  Device.copy ~src:t.dev ~dst:(Mirror.device m);
  t.mirror_list <- m :: t.mirror_list

(* -- ds registry -------------------------------------------------------- *)

let register_ds_record t ~ds ~ds_name ~root ~lock ~sn =
  let r = { ds; ds_name; root; lock; sn; conflict = Conflict.create () } in
  Hashtbl.replace t.ds_by_id ds r;
  Hashtbl.replace t.ds_by_name ds_name r;
  r

let rebuild_ds_registry t =
  Hashtbl.reset t.ds_by_id;
  Hashtbl.reset t.ds_by_name;
  t.next_ds <- 1;
  List.iter
    (fun (key, _kind, addr) ->
      match Filename.check_suffix key "!ds" with
      | false -> ()
      | true ->
          let ds_name = Filename.chop_suffix key "!ds" in
          let ds = addr in
          let get suffix =
            match Naming.find t.naming (ds_name ^ suffix) with
            | Some (_, a) -> a
            | None -> failwith ("Backend: missing naming entry " ^ ds_name ^ suffix)
          in
          ignore (register_ds_record t ~ds ~ds_name ~root:(get "!root") ~lock:(get "!lock") ~sn:(get "!sn"));
          if ds >= t.next_ds then t.next_ds <- ds + 1)
    (Naming.to_list t.naming)

(* -- memory-log replay -------------------------------------------------- *)

let apply_tx t ~at ~ring_base ~ring_off (tx : Log.Tx.t) raw =
  (* Cost: per-entry CPU + NVM media, plus the two sequence-number bumps. *)
  let entries = tx.Log.Tx.entries in
  let media =
    List.fold_left
      (fun acc { Log.Mem_entry.value; _ } ->
        acc + Latency.nvm_write_cost t.lat (Bytes.length value))
      0 entries
  in
  let dur =
    (t.lat.Latency.cpu_entry_ns * List.length entries)
    + media
    + (2 * Latency.nvm_write_cost t.lat 8)
  in
  let start = Timeline.acquire t.cpu_tl ~at ~dur in
  let stop = start + dur in
  if Asym_obs.enabled () then
    Asym_obs.Span.complete ~cat:"log" ~track:(Timeline.name t.cpu_tl) ~ts:start ~dur
      "log.replay_tx";
  (match Hashtbl.find_opt t.ds_by_id tx.Log.Tx.ds with
  | Some r ->
      ignore (Device.fetch_add t.dev ~addr:r.sn 1L);
      Conflict.record r.conflict ~start_:start ~stop;
      List.iter
        (fun { Log.Mem_entry.addr; value; _ } ->
          Device.write t.dev ~addr value;
          repl_uncharged t ~addr value)
        entries;
      ignore (Device.fetch_add t.dev ~addr:r.sn 1L)
  | None ->
      List.iter
        (fun { Log.Mem_entry.addr; value; _ } ->
          Device.write t.dev ~addr value;
          repl_uncharged t ~addr value)
        entries);
  (* Forward the log record itself to the mirrors (one charged message);
     the data-area entry writes above piggyback inside it. *)
  repl t ~at:stop ~addr:(ring_base + ring_off) raw;
  t.n_replayed_txs <- t.n_replayed_txs + 1;
  t.n_replayed_entries <- t.n_replayed_entries + List.length entries;
  stop

let gc_oplog t ~at s =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    match Queue.peek_opt s.op_index with
    | Some (opnum, _) when opnum <= s.opn_covered ->
        let _, off = Queue.pop s.op_index in
        ignore off;
        changed := true
    | _ -> continue_ := false
  done;
  if !changed then begin
    (match Queue.peek_opt s.op_index with
    | Some (_, off) -> s.oplog_tail <- off
    | None -> s.oplog_tail <- s.oplog_head);
    persist_session t ~at s
  end

(* Zero a consumed region of a log ring: log truncation. Keeping consumed
   and never-written ring bytes zero is what lets a post-crash scan stop at
   the first Empty byte instead of tripping over stale records from a
   previous ring lap. *)
let truncate_ring t ~ring_base ~off ~len = zero_everywhere t ~addr:(ring_base + off) ~len

(* Scan the record at a ring position through a window of [len] bytes,
   growing it x4 while the record may run past the window (the scan says
   [torn]) and the ring has bytes left. The result does not depend on the
   first window's size, only the number of bytes read does. Returns the
   scan result and the window. *)
let scan_at t ~ring_base ~cap ~pos ~len ~torn scan =
  let rec go len =
    let len = min len (cap - pos) in
    let window = Device.read t.dev ~addr:(ring_base + pos) ~len in
    match scan window ~pos:0 with
    | r when r = torn && len < cap - pos -> go (len * 4)
    | r -> (r, window)
  in
  go len

(* First window when no better size is known: a small record's worth. *)
let min_window = 64

(* Replay every complete transaction sitting past the session's LPN, until
   the scan hits the zeroed frontier (Empty) or a torn record. Consumed
   bytes are zeroed; LPN/OPN are persisted. Returns [true] on a torn tail.
   The front-end's noted head bounds what it has appended, so the first
   window is exactly the appended bytes. *)
let replay_pending t ~at s =
  let ring_base, cap = Layout.memlog_region t.layout ~session:s.sid in
  let time = ref at in
  let torn = ref false in
  let continue_ = ref true in
  while !continue_ do
    let pos = s.lpn in
    let len = if s.memlog_head > pos then s.memlog_head - pos else min_window in
    let result, window =
      scan_at t ~ring_base ~cap ~pos ~len ~torn:Log.Tx.Torn Log.Tx.scan
    in
    match result with
    | Log.Tx.Record (tx, consumed) ->
        let raw = if consumed = len then window else Bytes.sub window 0 consumed in
        (* Dedup check: a frame at or below the covered OPN is a
           retransmission of an already-applied transaction (a client
           retry after a lost ack, or a re-drain racing a reconnect).
           Absorbing it is safe — entries are absolute-address redo
           records, so re-applying is idempotent — but it must never
           move the covered OPN backwards. *)
        let covered_before = s.opn_covered in
        if tx.Log.Tx.entries <> [] && Int64.compare tx.Log.Tx.op_hi covered_before <= 0 then
          t.n_dup_replays <- t.n_dup_replays + 1;
        time := apply_tx t ~at:!time ~ring_base ~ring_off:pos tx raw;
        if Int64.compare tx.Log.Tx.op_hi s.opn_covered > 0 then
          s.opn_covered <- tx.Log.Tx.op_hi;
        assert (Int64.compare s.opn_covered covered_before >= 0);
        truncate_ring t ~ring_base ~off:pos ~len:consumed;
        s.lpn <- (pos + consumed) mod cap
    | Log.Tx.Wrap ->
        truncate_ring t ~ring_base ~off:pos ~len:1;
        s.lpn <- 0
    | Log.Tx.Empty -> continue_ := false
    | Log.Tx.Torn ->
        torn := true;
        Asym_obs.Span.instant ~cat:"fault" ~track:t.bname ~ts:!time "log.torn_tail";
        continue_ := false
  done;
  persist_session t ~at:!time s;
  gc_oplog t ~at:!time s;
  !torn

let drain_session t ~session ~arrival =
  check_alive t;
  let s = get_session t session in
  ignore (replay_pending t ~at:arrival s)

(* -- front-end cursor notifications ------------------------------------ *)

let note_heads t ~session ?memlog_head ?oplog_head ?next_opnum () =
  let s = get_session t session in
  (match memlog_head with Some v -> s.memlog_head <- v | None -> ());
  (match oplog_head with Some v -> s.oplog_head <- v | None -> ());
  match next_opnum with Some v -> s.next_opnum <- v | None -> ()

let note_op_offset t ~session ~opnum ~offset =
  let s = get_session t session in
  Queue.push (opnum, offset) s.op_index

let replicate_raw t ~at ~addr b = repl t ~at ~addr b

(* -- locks and conflicts ------------------------------------------------ *)

let lock_timeline t addr =
  match Hashtbl.find_opt t.locks addr with
  | Some tl -> tl
  | None ->
      let tl = Timeline.create ~name:(Printf.sprintf "lock@%#x" addr) () in
      Hashtbl.replace t.locks addr tl;
      tl

let timelines t = t.nic_tl :: t.cpu_tl :: List.of_seq (Hashtbl.to_seq_values t.locks)

let conflict_overlaps t ~ds ~start_ ~stop =
  match Hashtbl.find_opt t.ds_by_id ds with
  | Some r -> Conflict.overlaps r.conflict ~start_ ~stop
  | None -> false

let seqno t ~ds =
  match Hashtbl.find_opt t.ds_by_id ds with
  | Some r -> Device.read_u64 t.dev ~addr:r.sn
  | None -> 0L

(* -- ring regions -------------------------------------------------------- *)

let memlog_ring t ~session = Layout.memlog_region t.layout ~session
let oplog_ring t ~session = Layout.oplog_region t.layout ~session

(* -- op-log scanning (recovery) ----------------------------------------- *)

(* Scan the live records from the GC tail. Live records carry strictly
   increasing opnums above the covered OPN. Op-log GC only moves the tail
   and never zeroes consumed bytes, so once the ring has wrapped the bytes
   past the head still hold the previous lap's records: the first record
   whose opnum does not exceed its predecessor's (or the covered OPN) is
   such a stale record, and the scan stops there. Each record is read
   through its own window, so the scan reads the live records and the one
   that ends them, not the ring. Returns the records, the head, and the
   next fresh opnum. *)
let scan_oplog t s =
  let ring_base, cap = Layout.oplog_region t.layout ~session:s.sid in
  let rec go ~pos ~head ~last records =
    match
      fst
        (scan_at t ~ring_base ~cap ~pos ~len:min_window ~torn:Log.Op_entry.Torn
           Log.Op_entry.scan)
    with
    | Log.Op_entry.Record (op, consumed) when Int64.compare op.Log.Op_entry.opnum last > 0 ->
        let pos = pos + consumed in
        go ~pos ~head:pos ~last:op.Log.Op_entry.opnum ((op, pos - consumed) :: records)
    | Log.Op_entry.Wrap when pos > 0 -> go ~pos:0 ~head ~last records
    | Log.Op_entry.Record _ | Log.Op_entry.Wrap | Log.Op_entry.Empty | Log.Op_entry.Torn ->
        (List.rev records, head, Int64.succ last)
  in
  go ~pos:s.oplog_tail ~head:s.oplog_tail ~last:s.opn_covered []

let unreplayed_ops t ~session =
  check_alive t;
  let s = get_session t session in
  let records, _, _ = scan_oplog t s in
  List.filter_map
    (fun (op, _) -> if internal_optype op.Log.Op_entry.optype then None else Some op)
    records

let abandoned_locks t ~session =
  check_alive t;
  let s = get_session t session in
  let records, _, _ = scan_oplog t s in
  let held = Hashtbl.create 4 in
  List.iter
    (fun (op, _) ->
      let ty = op.Log.Op_entry.optype in
      if ty = optype_lock_acquire || ty = optype_lock_release then begin
        let addr = Bytes.get_int64_le op.Log.Op_entry.params 0 |> Int64.to_int in
        if ty = optype_lock_acquire then Hashtbl.replace held addr ()
        else Hashtbl.remove held addr
      end)
    records;
  Hashtbl.fold (fun addr () acc -> addr :: acc) held []

let force_release_lock t addr ~at =
  Device.write_u64 t.dev ~addr 0L;
  Timeline.release (lock_timeline t addr) ~at

let session_cursors t ~session =
  let s = get_session t session in
  {
    Rpc_msg.memlog_head = s.memlog_head;
    oplog_head = s.oplog_head;
    opn_covered = s.opn_covered;
    next_opnum = s.next_opnum;
  }

(* -- crash and restart --------------------------------------------------- *)

let crash ?torn_keep t =
  (match torn_keep with Some keep -> Device.tear_last_write t.dev ~keep | None -> ());
  t.crashed <- true;
  Asym_obs.Span.instant ~cat:"fault" ~track:t.bname "backend.crash"

let restart t =
  Asym_obs.Span.instant ~cat:"fault" ~track:t.bname "backend.restart";
  Device.crash_restart t.dev;
  t.layout <- Layout.load t.dev;
  t.naming <- Naming.load t.dev ~base:t.layout.Layout.naming_base ~len:t.layout.Layout.naming_len;
  t.alloc <- Backend_alloc.load t.dev t.layout;
  t.meta_cursor <- Int64.to_int (Device.read_u64 t.dev ~addr:t.layout.Layout.meta_base);
  rebuild_ds_registry t;
  Hashtbl.reset t.locks;
  t.crashed <- false;
  let statuses = ref [] in
  for sid = 0 to t.layout.Layout.max_sessions - 1 do
    match load_session t sid with
    | None -> t.sessions.(sid) <- None
    | Some s ->
        t.sessions.(sid) <- Some s;
        (* Redo every intact transaction past the LPN. Replay is
           idempotent: entries are absolute-address redo records. *)
        let torn = replay_pending t ~at:0 s in
        s.memlog_head <- s.lpn;
        let records, op_head, next_opnum = scan_oplog t s in
        s.oplog_head <- op_head;
        s.next_opnum <- next_opnum;
        Queue.clear s.op_index;
        List.iter
          (fun (op, off) -> Queue.push (op.Log.Op_entry.opnum, off) s.op_index)
          records;
        statuses :=
          (sid, if torn then Session_torn_tail else Session_consistent) :: !statuses
  done;
  List.rev !statuses

let of_device ?(name = "backend") dev lat =
  let layout = Layout.load dev in
  let t =
    {
      bname = name;
      dev;
      lat;
      nic_tl = Timeline.create ~name:(name ^ ".nic") ();
      cpu_tl = Timeline.create ~name:(name ^ ".cpu") ();
      layout;
      naming = Naming.load dev ~base:layout.Layout.naming_base ~len:layout.Layout.naming_len;
      alloc = Backend_alloc.load dev layout;
      meta_cursor = 0;
      sessions = Array.make layout.Layout.max_sessions None;
      ds_by_id = Hashtbl.create 16;
      ds_by_name = Hashtbl.create 16;
      locks = Hashtbl.create 16;
      mirror_list = [];
      next_ds = 1;
      crashed = false;
      n_rpcs = 0;
      n_replayed_txs = 0;
      n_replayed_entries = 0;
      n_dup_replays = 0;
    }
  in
  ignore (restart t);
  t

(* -- RPC ----------------------------------------------------------------- *)

let alloc_meta t ~at len =
  let len = (len + 7) / 8 * 8 in
  let base = t.layout.Layout.meta_base + 8 in
  if t.meta_cursor + len > t.layout.Layout.meta_len - 8 then None
  else begin
    let addr = base + t.meta_cursor in
    t.meta_cursor <- t.meta_cursor + len;
    Device.zero t.dev ~addr ~len;
    write_word t ~at t.layout.Layout.meta_base (Int64.of_int t.meta_cursor);
    Some addr
  end

let fresh_session t ~at =
  let rec find i =
    if i >= t.layout.Layout.max_sessions then None
    else if t.sessions.(i) = None then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some sid ->
      let s =
        {
          sid;
          lpn = 0;
          opn_covered = 0L;
          oplog_tail = 0;
          memlog_head = 0;
          oplog_head = 0;
          next_opnum = 1L;
          op_index = Queue.create ();
        }
      in
      t.sessions.(sid) <- Some s;
      let base = Layout.session_slot t.layout ~session:sid in
      write_word t ~at (base + slot_inuse) 1L;
      persist_session t ~at s;
      (* Zero the session's rings so scans terminate at Empty. *)
      let mbase, mcap = Layout.memlog_region t.layout ~session:sid in
      let obase, ocap = Layout.oplog_region t.layout ~session:sid in
      zero_everywhere t ~addr:mbase ~len:mcap;
      zero_everywhere t ~addr:obase ~len:ocap;
      Some sid

let handle_register_ds t ~at ds_name =
  match Hashtbl.find_opt t.ds_by_name ds_name with
  | Some r -> Rpc_msg.R_handle { ds = r.ds; root = r.root; lock = r.lock; sn = r.sn }
  | None -> (
      let alloc3 () =
        match (alloc_meta t ~at 8, alloc_meta t ~at 8, alloc_meta t ~at 8) with
        | Some a, Some b, Some c -> Some (a, b, c)
        | _ -> None
      in
      match alloc3 () with
      | None -> Rpc_msg.R_error "meta heap exhausted"
      | Some (root, lock, sn) ->
          let ds = t.next_ds in
          t.next_ds <- ds + 1;
          Naming.set t.naming (ds_name ^ "!ds") Types.Meta ds;
          Naming.set t.naming (ds_name ^ "!root") Types.Root root;
          Naming.set t.naming (ds_name ^ "!lock") Types.Lock lock;
          Naming.set t.naming (ds_name ^ "!sn") Types.Seqno sn;
          let nb =
            Device.read t.dev ~addr:t.layout.Layout.naming_base
              ~len:(Naming.persisted_len t.naming)
          in
          repl t ~at ~addr:t.layout.Layout.naming_base nb;
          ignore (register_ds_record t ~ds ~ds_name ~root ~lock ~sn);
          Rpc_msg.R_handle { ds; root; lock; sn })

let handle t ~at ~session req =
  match req with
  | Rpc_msg.Open_session { reuse = Some sid; _ } ->
      if sid < 0 || sid >= t.layout.Layout.max_sessions || t.sessions.(sid) = None then
        Rpc_msg.R_error "no such session"
      else Rpc_msg.R_session sid
  | Rpc_msg.Open_session { reuse = None; _ } -> (
      match fresh_session t ~at with
      | Some sid -> Rpc_msg.R_session sid
      | None -> Rpc_msg.R_error "no free session slots")
  | Rpc_msg.Close_session -> (
      match session with
      | None -> Rpc_msg.R_error "no session"
      | Some sid ->
          t.sessions.(sid) <- None;
          let base = Layout.session_slot t.layout ~session:sid in
          write_word t ~at (base + slot_inuse) 0L;
          Rpc_msg.R_unit)
  | Rpc_msg.Malloc { slabs } -> (
      match Backend_alloc.alloc t.alloc ~slabs with
      | Some addr ->
          (* Replicate the touched bitmap bytes. *)
          let s = Layout.slab_index t.layout addr in
          let lo = s / 8 and hi = (s + slabs) / 8 in
          let b =
            Device.read t.dev ~addr:(t.layout.Layout.bitmap_base + lo) ~len:(hi - lo + 1)
          in
          repl t ~at ~addr:(t.layout.Layout.bitmap_base + lo) b;
          Rpc_msg.R_addr addr
      | None -> Rpc_msg.R_error "out of NVM slabs")
  | Rpc_msg.Free { addr; slabs } ->
      Backend_alloc.free t.alloc ~addr ~slabs;
      let s = Layout.slab_index t.layout addr in
      let lo = s / 8 and hi = (s + slabs) / 8 in
      let b = Device.read t.dev ~addr:(t.layout.Layout.bitmap_base + lo) ~len:(hi - lo + 1) in
      repl t ~at ~addr:(t.layout.Layout.bitmap_base + lo) b;
      Rpc_msg.R_unit
  | Rpc_msg.Free_batch { addrs } ->
      List.iter (fun addr -> Backend_alloc.free t.alloc ~addr ~slabs:1) addrs;
      (* Replicate the whole bitmap once: reclamation is batched and rare. *)
      let b =
        Device.read t.dev ~addr:t.layout.Layout.bitmap_base ~len:t.layout.Layout.bitmap_len
      in
      repl t ~at ~addr:t.layout.Layout.bitmap_base b;
      Rpc_msg.R_unit
  | Rpc_msg.Alloc_meta { len } -> (
      match alloc_meta t ~at len with
      | Some addr -> Rpc_msg.R_addr addr
      | None -> Rpc_msg.R_error "meta heap exhausted")
  | Rpc_msg.Name_set { name; kind; addr } ->
      Naming.set t.naming name kind addr;
      let nb =
        Device.read t.dev ~addr:t.layout.Layout.naming_base ~len:(Naming.persisted_len t.naming)
      in
      repl t ~at ~addr:t.layout.Layout.naming_base nb;
      Rpc_msg.R_unit
  | Rpc_msg.Name_get { name } -> Rpc_msg.R_name (Naming.find t.naming name)
  | Rpc_msg.Register_ds { name } -> handle_register_ds t ~at name
  | Rpc_msg.Get_cursors -> (
      match session with
      | None -> Rpc_msg.R_error "no session"
      | Some sid -> Rpc_msg.R_cursors (session_cursors t ~session:sid))

let req_label = function
  | Rpc_msg.Open_session _ -> "open_session"
  | Rpc_msg.Close_session -> "close_session"
  | Rpc_msg.Malloc _ -> "malloc"
  | Rpc_msg.Free _ -> "free"
  | Rpc_msg.Free_batch _ -> "free_batch"
  | Rpc_msg.Alloc_meta _ -> "alloc_meta"
  | Rpc_msg.Name_set _ -> "name_set"
  | Rpc_msg.Name_get _ -> "name_get"
  | Rpc_msg.Register_ds _ -> "register_ds"
  | Rpc_msg.Get_cursors -> "get_cursors"

let rpc t ~conn ~session req =
  check_alive t;
  let clk = Verbs.client_clock conn in
  let reqb = Rpc_msg.encode_request req in
  (* Request: one-sided write into the session's RPC ring. *)
  let req_payload = Latency.rdma_payload_ns t.lat (Bytes.length reqb + 16) in
  let at0 = Clock.now clk in
  let _ =
    Timeline.acquire t.nic_tl ~at:at0 ~dur:(t.lat.Latency.rdma_post_ns + req_payload)
  in
  Clock.advance ~cause:Asym_obs.Attr.Alloc_rpc clk (t.lat.Latency.rdma_rtt_ns + req_payload);
  let arrival = Clock.now clk in
  (* Processing on the back-end CPU; media time for whatever it persisted. *)
  let before = Device.bytes_written t.dev in
  let resp = handle t ~at:arrival ~session (Rpc_msg.decode_request reqb) in
  let after = Device.bytes_written t.dev in
  let proc = rpc_base_ns + Latency.nvm_write_cost t.lat (after - before) in
  let start = Timeline.acquire t.cpu_tl ~at:arrival ~dur:proc in
  (* Queueing behind the back-end CPU is replay backlog, not RPC work. *)
  Clock.wait_until ~cause:Asym_obs.Attr.Replay_wait clk start;
  Clock.wait_until ~cause:Asym_obs.Attr.Alloc_rpc clk (start + proc);
  if Asym_obs.enabled () then
    Asym_obs.Span.complete ~cat:"rpc" ~track:(Timeline.name t.cpu_tl) ~ts:start ~dur:proc
      ("rpc." ^ req_label req);
  (* Response: one-sided read of the response slot. *)
  let respb = Rpc_msg.encode_response resp in
  let resp_payload = Latency.rdma_payload_ns t.lat (Bytes.length respb + 16) in
  let _ =
    Timeline.acquire t.nic_tl ~at:(Clock.now clk)
      ~dur:(t.lat.Latency.rdma_post_ns + resp_payload)
  in
  Clock.advance ~cause:Asym_obs.Attr.Alloc_rpc clk (t.lat.Latency.rdma_rtt_ns + resp_payload);
  t.n_rpcs <- t.n_rpcs + 1;
  Rpc_msg.decode_response respb
