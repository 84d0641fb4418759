let block_shift = 6
let block_size = 1 lsl block_shift

type block = { data : bytes; valid : bytes (* 0/1 per byte *) }

type t = { blocks : block Itbl.t }

let create () = { blocks = Itbl.create 64 }

let block_for t id =
  match Itbl.find_opt t.blocks id with
  | Some b -> b
  | None ->
      let b = { data = Bytes.create block_size; valid = Bytes.make block_size '\000' } in
      Itbl.replace t.blocks id b;
      b

let add t ~addr value =
  let len = Bytes.length value in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let id = a lsr block_shift in
    let off = a land (block_size - 1) in
    let n = Int.min (block_size - off) (len - !i) in
    let b = block_for t id in
    Bytes.blit value !i b.data off n;
    Bytes.fill b.valid off n '\001';
    i := !i + n
  done

let patch t ~addr buf =
  if Itbl.length t.blocks > 0 then begin
    let len = Bytes.length buf in
    let first = addr lsr block_shift in
    let last = (addr + len - 1) lsr block_shift in
    for id = first to last do
      match Itbl.find_opt t.blocks id with
      | None -> ()
      | Some b ->
          let block_base = id lsl block_shift in
          let lo = Int.max addr block_base in
          let hi = Int.min (addr + len) (block_base + block_size) in
          for a = lo to hi - 1 do
            let off = a - block_base in
            if Bytes.get b.valid off = '\001' then
              Bytes.set buf (a - addr) (Bytes.get b.data off)
          done
    done
  end

let try_read t ~addr ~len =
  if Itbl.length t.blocks = 0 then None
  else begin
    let out = Bytes.create len in
    let ok = ref true in
    let a = ref addr in
    while !ok && !a < addr + len do
      let id = !a lsr block_shift in
      match Itbl.find_opt t.blocks id with
      | None -> ok := false
      | Some b ->
          let off = !a land (block_size - 1) in
          if Bytes.get b.valid off = '\001' then begin
            Bytes.set out (!a - addr) (Bytes.get b.data off);
            incr a
          end
          else ok := false
    done;
    if !ok then Some out else None
  end

let clear t = Itbl.reset t.blocks
