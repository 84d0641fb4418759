open Asym_util

(* Framing bytes. A zeroed ring byte (0x00) means "nothing written here",
   so every real frame starts with a distinctive tag. *)
let tag_tx = 0xB5
let tag_op = 0xA7
let tag_wrap = 0xFF
let tag_commit = 0xC3
let flag_inline = 0x01
let flag_op_pointer = 0x02

(* Test-only fault: when cleared, [scan] accepts records whose checksum
   does not match, i.e. torn-write detection is broken. lib/check uses it
   to prove the crash-point sweep can fail. *)
let crc_check = ref true

module Mem_entry = struct
  type t = { addr : Types.addr; value : bytes; from_op : int64 option }

  let make ?from_op ~addr value = { addr; value; from_op }
end

module Tx = struct
  type t = { ds : Types.ds_id; op_hi : int64; entries : Mem_entry.t list }

  (* Stored frame: header (1+4+8+4), per entry (1 [+8 op number] +8+4 +
     value), commit (1), crc (4). *)
  let entry_size { Mem_entry.value; from_op; _ } =
    13 + (match from_op with Some _ -> 8 | None -> 0) + Bytes.length value

  let size t = List.fold_left (fun acc en -> acc + entry_size en) 22 t.entries

  let encode_into t buf ~pos =
    Bytes.set_uint8 buf pos tag_tx;
    Bytes.set_int32_le buf (pos + 1) (Int32.of_int t.ds);
    Bytes.set_int64_le buf (pos + 5) t.op_hi;
    Bytes.set_int32_le buf (pos + 13) (Int32.of_int (List.length t.entries));
    let p =
      List.fold_left
        (fun p { Mem_entry.addr; value; from_op } ->
          (* A pointer entry must carry the op number it points at — the
             old encoding dropped it and [scan] fabricated [Some 0L]. *)
          let p =
            match from_op with
            | Some opn ->
                Bytes.set_uint8 buf p flag_op_pointer;
                Bytes.set_int64_le buf (p + 1) opn;
                p + 9
            | None ->
                Bytes.set_uint8 buf p flag_inline;
                p + 1
          in
          let len = Bytes.length value in
          Bytes.set_int64_le buf p (Int64.of_int addr);
          Bytes.set_int32_le buf (p + 8) (Int32.of_int len);
          Bytes.blit value 0 buf (p + 12) len;
          p + 12 + len)
        (pos + 17) t.entries
    in
    Bytes.set_uint8 buf p tag_commit;
    Bytes.set_int32_le buf (p + 1) (Crc32.digest buf ~pos ~len:(p + 1 - pos));
    p + 5

  (* Wire cost, not stored size. Header (1+4+8+4) + per entry (1+8+4 +
     payload) + commit (1) + crc (4). An entry whose value is already
     durable in the operation log ships a 12-byte pointer (op number +
     offset) instead of the value — the stored frame additionally spends
     8 bytes on the op number, but the wire charges only the pointer. *)
  let wire_size t =
    let entry_payload { Mem_entry.value; from_op; _ } =
      match from_op with
      | Some _ -> min 12 (Bytes.length value)
      | None -> Bytes.length value
    in
    17
    + List.fold_left (fun acc en -> acc + 13 + entry_payload en) 0 t.entries
    + 5

  type scan_result = Record of t * int | Torn | Wrap | Empty

  let scan buf ~pos =
    if pos >= Bytes.length buf then Empty
    else
      match Bytes.get_uint8 buf pos with
      | 0x00 -> Empty
      | b when b = tag_wrap -> Wrap
      | b when b <> tag_tx -> Torn
      | _ -> (
          try
            let d = Codec.Dec.of_bytes ~pos buf in
            let _tag = Codec.Dec.u8 d in
            let ds = Codec.Dec.u32i d in
            let op_hi = Codec.Dec.u64 d in
            let n = Codec.Dec.u32i d in
            if n > 1_000_000 then raise Exit;
            let entries = ref [] in
            for _ = 1 to n do
              let flag = Codec.Dec.u8 d in
              if flag <> flag_inline && flag <> flag_op_pointer then raise Exit;
              let from_op = if flag = flag_op_pointer then Some (Codec.Dec.u64 d) else None in
              let addr = Codec.Dec.u64i d in
              let len = Codec.Dec.u32i d in
              if len > Bytes.length buf then raise Exit;
              let value = Codec.Dec.bytes d len in
              entries := { Mem_entry.addr; value; from_op } :: !entries
            done;
            if Codec.Dec.u8 d <> tag_commit then raise Exit;
            let body_len = Codec.Dec.pos d - pos in
            let crc = Codec.Dec.u32 d in
            let actual = Crc32.digest buf ~pos ~len:body_len in
            if !crc_check && crc <> actual then Torn
            else
              Record
                ( { ds; op_hi; entries = List.rev !entries },
                  Codec.Dec.pos d - pos )
          with Exit | Invalid_argument _ -> Torn)

  let wrap_marker = Bytes.make 1 (Char.chr tag_wrap)
end

module Op_entry = struct
  type t = { ds : Types.ds_id; opnum : int64; optype : int; params : bytes }

  (* Frame: tag (1), ds (4), opnum (8), optype (1), params length (4),
     params, crc (4). *)
  let encode t =
    let plen = Bytes.length t.params in
    let body = 18 + plen in
    let raw = Bytes.create (body + 4) in
    Bytes.set_uint8 raw 0 tag_op;
    Bytes.set_int32_le raw 1 (Int32.of_int t.ds);
    Bytes.set_int64_le raw 5 t.opnum;
    Bytes.set_uint8 raw 13 t.optype;
    Bytes.set_int32_le raw 14 (Int32.of_int plen);
    Bytes.blit t.params 0 raw 18 plen;
    Bytes.set_int32_le raw body (Crc32.digest raw ~pos:0 ~len:body);
    raw

  type scan_result = Record of t * int | Torn | Wrap | Empty

  let scan buf ~pos =
    if pos >= Bytes.length buf then Empty
    else
      match Bytes.get_uint8 buf pos with
      | 0x00 -> Empty
      | b when b = tag_wrap -> Wrap
      | b when b <> tag_op -> Torn
      | _ -> (
          try
            let d = Codec.Dec.of_bytes ~pos buf in
            let _tag = Codec.Dec.u8 d in
            let ds = Codec.Dec.u32i d in
            let opnum = Codec.Dec.u64 d in
            let optype = Codec.Dec.u8 d in
            let len = Codec.Dec.u32i d in
            if len > Bytes.length buf then raise Exit;
            let params = Codec.Dec.bytes d len in
            let body_len = Codec.Dec.pos d - pos in
            let crc = Codec.Dec.u32 d in
            let actual = Crc32.digest buf ~pos ~len:body_len in
            if !crc_check && crc <> actual then Torn
            else Record ({ ds; opnum; optype; params }, Codec.Dec.pos d - pos)
          with Exit | Invalid_argument _ -> Torn)

  let wrap_marker = Bytes.make 1 (Char.chr tag_wrap)
end
