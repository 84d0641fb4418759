open Asym_sim

type addr = int

(* Sparse media: a table of fixed-size chunks. A chunk nothing non-zero
   has ever been written to is [zero_chunk], shared by every device and
   never written; a chunk gets its own buffer on its first non-zero write
   and keeps it (zeroing fills it in place). *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let zero_chunk = Bytes.make chunk_size '\000'

(* Pre-image of the last mutation. A range whose chunks were all untouched
   held zeros, so nothing is saved for it. A pre-image of at most one chunk
   is copied into the device's [pre_buf], which every mutation reuses; a
   larger one gets a buffer of its own. *)
type pre_image = Zeros | Buffered | Saved of bytes

type t = {
  name : string;
  capacity : int;
  chunks : bytes array;
  lat : Latency.t;
  mutable resident : int;  (* chunks with their own buffer *)
  (* The last write, for [tear_last_write]; [last_len < 0]: none. *)
  mutable last_addr : addr;
  mutable last_len : int;
  mutable last_pre : pre_image;
  pre_buf : bytes;  (* [Buffered] pre-image, chunk-sized *)
  mutable reads : int;
  mutable writes : int;
  mutable bytes_written : int;
}

let create ?(name = "nvm") ~capacity lat =
  assert (capacity > 0);
  {
    name;
    capacity;
    chunks = Array.make ((capacity + chunk_mask) lsr chunk_bits) zero_chunk;
    lat;
    resident = 0;
    last_addr = 0;
    last_len = -1;
    last_pre = Zeros;
    pre_buf = Bytes.create chunk_size;
    reads = 0;
    writes = 0;
    bytes_written = 0;
  }

let name t = t.name
let capacity t = t.capacity
let latency t = t.lat

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Nvm.Device %s: access out of bounds (addr=%d len=%d cap=%d)" t.name addr
         len t.capacity)

(* -- chunk table -------------------------------------------------------- *)

(* Chunk [i]'s own buffer, allocated (zero-filled) if it has none yet. *)
let owned t i =
  let c = t.chunks.(i) in
  if c != zero_chunk then c
  else begin
    let c = Bytes.make chunk_size '\000' in
    t.chunks.(i) <- c;
    t.resident <- t.resident + 1;
    c
  end

let all_zero b pos len =
  let i = ref pos and stop = pos + len in
  while !i < stop && Bytes.unsafe_get b !i = '\000' do
    incr i
  done;
  !i >= stop

(* Call [f chunk offset n pos] for each piece of [addr, addr + len) that
   lies in one chunk; [pos] is the piece's offset within the range. *)
let pieces addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land chunk_mask in
    let n = min (chunk_size - off) (len - !pos) in
    f (a lsr chunk_bits) off n !pos;
    pos := !pos + n
  done

let untouched t addr len =
  let i = ref (addr lsr chunk_bits) and last = (addr + len - 1) asr chunk_bits in
  while !i <= last && t.chunks.(!i) == zero_chunk do
    incr i
  done;
  !i > last

(* Copy [addr, addr + len) into [dst] from offset 0. *)
let get_into t addr len dst =
  let off = addr land chunk_mask in
  if len > 0 && off + len <= chunk_size then
    Bytes.blit t.chunks.(addr lsr chunk_bits) off dst 0 len
  else pieces addr len (fun i off n pos -> Bytes.blit t.chunks.(i) off dst pos n)

let get t addr len =
  let b = Bytes.create len in
  get_into t addr len b;
  b

(* Store [len] bytes of [src] from [src_pos] at [addr]. An untouched chunk
   is allocated only if the bytes bound for it are not all zero. *)
let put_piece t src src_pos i off n =
  let c = t.chunks.(i) in
  if c != zero_chunk then Bytes.blit src src_pos c off n
  else if not (all_zero src src_pos n) then Bytes.blit src src_pos (owned t i) off n

let put t src src_pos addr len =
  let off = addr land chunk_mask in
  if len > 0 && off + len <= chunk_size then put_piece t src src_pos (addr lsr chunk_bits) off len
  else pieces addr len (fun i off n pos -> put_piece t src (src_pos + pos) i off n)

let fill_zero t addr len =
  pieces addr len (fun i off n _ ->
      let c = t.chunks.(i) in
      if c != zero_chunk then Bytes.fill c off n '\000')

let get_u64 t addr =
  let off = addr land chunk_mask in
  if off <= chunk_size - 8 then Bytes.get_int64_le t.chunks.(addr lsr chunk_bits) off
  else Bytes.get_int64_le (get t addr 8) 0

let set_u64 t addr v =
  let off = addr land chunk_mask in
  if off <= chunk_size - 8 then begin
    let i = addr lsr chunk_bits in
    if t.chunks.(i) != zero_chunk || not (Int64.equal v 0L) then
      Bytes.set_int64_le (owned t i) off v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    put t b 0 addr 8
  end

(* -- mutation bookkeeping ----------------------------------------------- *)

let save_pre_image t addr len =
  t.last_addr <- addr;
  t.last_len <- len;
  t.last_pre <-
    (if untouched t addr len then Zeros
     else if len <= chunk_size then begin
       get_into t addr len t.pre_buf;
       Buffered
     end
     else Saved (get t addr len))

let count_write t len =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + len

(* -- access ------------------------------------------------------------- *)

let read t ~addr ~len =
  check t addr len;
  t.reads <- t.reads + 1;
  get t addr len

let read_u64 t ~addr =
  check t addr 8;
  t.reads <- t.reads + 1;
  get_u64 t addr

let write t ~addr b =
  let len = Bytes.length b in
  check t addr len;
  save_pre_image t addr len;
  put t b 0 addr len;
  count_write t len;
  Crashpoint.hit ~site:"nvm.write"

let zero t ~addr ~len =
  check t addr len;
  save_pre_image t addr len;
  fill_zero t addr len;
  count_write t len;
  Crashpoint.hit ~site:"nvm.write"

let write_u64 t ~addr v =
  check t addr 8;
  save_pre_image t addr 8;
  set_u64 t addr v;
  count_write t 8;
  Crashpoint.hit ~site:"nvm.write"

let compare_and_swap t ~addr ~expected ~desired =
  check t addr 8;
  let old = get_u64 t addr in
  if Int64.equal old expected then begin
    save_pre_image t addr 8;
    set_u64 t addr desired;
    count_write t 8;
    Crashpoint.hit ~site:"nvm.cas"
  end;
  old

let fetch_add t ~addr delta =
  check t addr 8;
  let old = get_u64 t addr in
  save_pre_image t addr 8;
  set_u64 t addr (Int64.add old delta);
  count_write t 8;
  Crashpoint.hit ~site:"nvm.fetch_add";
  old

let read_cost t ~len = Latency.nvm_read_cost t.lat len
let write_cost t ~len = Latency.nvm_write_cost t.lat len

let forget_last_write t =
  t.last_len <- -1;
  t.last_pre <- Zeros

let tear_last_write t ~keep =
  if t.last_len >= 0 then begin
    let len = t.last_len in
    let keep = max 0 (min keep len) in
    (* Revert the suffix past [keep] to the pre-image. *)
    (match t.last_pre with
    | Zeros -> fill_zero t (t.last_addr + keep) (len - keep)
    | Buffered -> put t t.pre_buf keep (t.last_addr + keep) (len - keep)
    | Saved pre -> put t pre keep (t.last_addr + keep) (len - keep));
    forget_last_write t;
    (* The device has no clock; the tracer anchors the instant at the
       latest simulated timestamp it has seen. *)
    Asym_obs.Span.instant ~cat:"fault" ~track:t.name "nvm.torn_write"
  end

let crash_restart t = forget_last_write t
let last_write_len t = if t.last_len < 0 then None else Some t.last_len
let reads_performed t = t.reads
let writes_performed t = t.writes
let bytes_written t = t.bytes_written
let resident_bytes t = t.resident * chunk_size

let copy ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg "Nvm.Device.copy: capacity mismatch";
  Array.iteri
    (fun i c ->
      if c != zero_chunk then Bytes.blit c 0 (owned dst i) 0 chunk_size
      else
        let d = dst.chunks.(i) in
        if d != zero_chunk then Bytes.fill d 0 chunk_size '\000')
    src.chunks

let equal a b =
  a.capacity = b.capacity
  &&
  let rec go i =
    i >= Array.length a.chunks
    || (let x = a.chunks.(i) and y = b.chunks.(i) in
        x == y || Bytes.equal x y)
       && go (i + 1)
  in
  go 0
