open Asym_nvm

let check = Alcotest.check
let lat = Asym_sim.Latency.default
let mk ?(cap = 4096) () = Device.create ~name:"t" ~capacity:cap lat

let test_read_write_roundtrip () =
  let d = mk () in
  Device.write d ~addr:100 (Bytes.of_string "hello");
  check Alcotest.string "roundtrip" "hello" (Bytes.to_string (Device.read d ~addr:100 ~len:5))

let test_u64_roundtrip () =
  let d = mk () in
  Device.write_u64 d ~addr:8 0x1234567890ABCDEFL;
  check Alcotest.int64 "u64" 0x1234567890ABCDEFL (Device.read_u64 d ~addr:8)

let test_bounds () =
  let d = mk ~cap:64 () in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Nvm.Device t: access out of bounds (addr=60 len=8 cap=64)") (fun () ->
      Device.write_u64 d ~addr:60 1L);
  Alcotest.check_raises "negative read"
    (Invalid_argument "Nvm.Device t: access out of bounds (addr=-1 len=4 cap=64)") (fun () ->
      ignore (Device.read d ~addr:(-1) ~len:4))

let test_cas () =
  let d = mk () in
  Device.write_u64 d ~addr:0 5L;
  check Alcotest.int64 "cas returns old" 5L
    (Device.compare_and_swap d ~addr:0 ~expected:5L ~desired:9L);
  check Alcotest.int64 "cas applied" 9L (Device.read_u64 d ~addr:0);
  check Alcotest.int64 "failed cas returns current" 9L
    (Device.compare_and_swap d ~addr:0 ~expected:5L ~desired:1L);
  check Alcotest.int64 "failed cas no-op" 9L (Device.read_u64 d ~addr:0)

let test_fetch_add () =
  let d = mk () in
  Device.write_u64 d ~addr:0 10L;
  check Alcotest.int64 "faa old" 10L (Device.fetch_add d ~addr:0 5L);
  check Alcotest.int64 "faa new" 15L (Device.read_u64 d ~addr:0)

let test_torn_write () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "AAAAAAAA");
  Device.write d ~addr:0 (Bytes.of_string "BBBBBBBB");
  Device.tear_last_write d ~keep:3;
  check Alcotest.string "prefix new, suffix old" "BBBAAAAA"
    (Bytes.to_string (Device.read d ~addr:0 ~len:8))

let test_torn_write_keep_zero () =
  let d = mk () in
  Device.write d ~addr:10 (Bytes.of_string "xyz");
  Device.write d ~addr:10 (Bytes.of_string "abc");
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "fully reverted" "xyz" (Bytes.to_string (Device.read d ~addr:10 ~len:3))

let test_tear_only_once () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "new");
  Device.tear_last_write d ~keep:0;
  (* Second tear is a no-op: bookkeeping was consumed. *)
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "still empty" "\000\000\000" (Bytes.to_string (Device.read d ~addr:0 ~len:3))

let test_torn_write_keep_full () =
  let d = mk () in
  Device.write d ~addr:4 (Bytes.of_string "old!");
  Device.write d ~addr:4 (Bytes.of_string "new!");
  check (Alcotest.option Alcotest.int) "last write is tearable" (Some 4) (Device.last_write_len d);
  (* keep = full length: the boundary case where the "tear" clips nothing. *)
  Device.tear_last_write d ~keep:4;
  check Alcotest.string "write fully intact" "new!" (Bytes.to_string (Device.read d ~addr:4 ~len:4));
  check (Alcotest.option Alcotest.int) "tear bookkeeping still consumed" None
    (Device.last_write_len d);
  (* keep past the write length clamps to a no-op too. *)
  Device.write d ~addr:4 (Bytes.of_string "more");
  Device.tear_last_write d ~keep:99;
  check Alcotest.string "over-long keep clamps" "more"
    (Bytes.to_string (Device.read d ~addr:4 ~len:4))

let test_tear_after_crash_restart () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "acked");
  Device.crash_restart d;
  (* A restart fences torn writes: whatever reached the media before the
     crash is either fully there or was already torn at crash time. *)
  check (Alcotest.option Alcotest.int) "nothing tearable after restart" None
    (Device.last_write_len d);
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "pre-crash write not revertible" "acked"
    (Bytes.to_string (Device.read d ~addr:0 ~len:5))

let test_crash_restart_preserves () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.of_string "durable");
  Device.crash_restart d;
  check Alcotest.string "survives" "durable" (Bytes.to_string (Device.read d ~addr:0 ~len:7));
  (* After a clean restart there is nothing to tear. *)
  Device.tear_last_write d ~keep:0;
  check Alcotest.string "still there" "durable" (Bytes.to_string (Device.read d ~addr:0 ~len:7))

let test_copy_equal () =
  let d = mk () in
  Device.write d ~addr:5 (Bytes.of_string "state");
  let saved = mk () in
  Device.copy ~src:d ~dst:saved;
  check Alcotest.bool "copy is equal" true (Device.equal d saved);
  Device.write d ~addr:5 (Bytes.of_string "XXXXX");
  check Alcotest.bool "diverged" false (Device.equal d saved);
  Device.copy ~src:saved ~dst:d;
  check Alcotest.string "restored" "state" (Bytes.to_string (Device.read d ~addr:5 ~len:5));
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Nvm.Device.copy: capacity mismatch") (fun () ->
      Device.copy ~src:d ~dst:(mk ~cap:8192 ()))

let cs = Device.chunk_size

let test_zero_write_stays_sparse () =
  let d = mk ~cap:(4 * cs) () in
  Device.write d ~addr:100 (Bytes.make (2 * cs) '\000');
  Device.zero d ~addr:0 ~len:(4 * cs);
  Device.write_u64 d ~addr:(cs - 4) 0L;
  check Alcotest.int "nothing resident" 0 (Device.resident_bytes d);
  check Alcotest.int "writes still counted" 3 (Device.writes_performed d);
  check Alcotest.int "bytes still counted" ((6 * cs) + 8) (Device.bytes_written d);
  Device.write d ~addr:(cs + 1) (Bytes.of_string "x");
  check Alcotest.int "one chunk resident" cs (Device.resident_bytes d);
  (* Zeroing a touched chunk fills it in place; it is never released. *)
  Device.zero d ~addr:cs ~len:cs;
  check Alcotest.int "still resident" cs (Device.resident_bytes d);
  check Alcotest.string "zeroed" "\000" (Bytes.to_string (Device.read d ~addr:(cs + 1) ~len:1))

let test_tear_spanning_three_chunks () =
  let d = mk ~cap:(4 * cs) () in
  let addr = cs - 100 and len = cs + 200 in
  (* The first chunk has old contents; the next two are untouched. *)
  Device.write d ~addr:(cs - 200) (Bytes.make 150 'o');
  let before = Device.read d ~addr ~len in
  let data = Bytes.init len (fun i -> Char.chr (1 + (i mod 250))) in
  Device.write d ~addr data;
  check (Alcotest.option Alcotest.int) "tearable" (Some len) (Device.last_write_len d);
  let keep = cs + 10 in
  Device.tear_last_write d ~keep;
  let expect = Bytes.cat (Bytes.sub data 0 keep) (Bytes.sub before keep (len - keep)) in
  check Alcotest.string "prefix kept, suffix reverted" (Bytes.to_string expect)
    (Bytes.to_string (Device.read d ~addr ~len));
  check Alcotest.string "outside untouched" (String.make 100 'o')
    (Bytes.to_string (Device.read d ~addr:(cs - 200) ~len:100))

let test_counters () =
  let d = mk () in
  Device.write d ~addr:0 (Bytes.create 10);
  Device.write d ~addr:0 (Bytes.create 6);
  ignore (Device.read d ~addr:0 ~len:4);
  check Alcotest.int "writes" 2 (Device.writes_performed d);
  check Alcotest.int "reads" 1 (Device.reads_performed d);
  check Alcotest.int "bytes written" 16 (Device.bytes_written d)

let test_costs () =
  let d = mk () in
  check Alcotest.int "read cost 1 line" lat.Asym_sim.Latency.nvm_read_ns (Device.read_cost d ~len:64);
  check Alcotest.int "write cost 2 lines" (2 * lat.Asym_sim.Latency.nvm_write_ns)
    (Device.write_cost d ~len:65)

let prop_write_read =
  QCheck.Test.make ~count:300 ~name:"random write/read roundtrip"
    QCheck.(pair (int_bound 1000) (string_of_size Gen.(1 -- 64)))
    (fun (addr, s) ->
      QCheck.assume (String.length s > 0);
      let d = mk () in
      Device.write d ~addr (Bytes.of_string s);
      Bytes.to_string (Device.read d ~addr ~len:(String.length s)) = s)

let prop_tear_is_prefix =
  QCheck.Test.make ~count:300 ~name:"torn write = prefix of new + suffix of old"
    QCheck.(triple (int_bound 100) (string_of_size Gen.(1 -- 32)) small_nat)
    (fun (addr, s, keep) ->
      QCheck.assume (String.length s > 0);
      let d = mk () in
      let old = String.make (String.length s) 'o' in
      Device.write d ~addr (Bytes.of_string old);
      Device.write d ~addr (Bytes.of_string s);
      Device.tear_last_write d ~keep;
      let got = Bytes.to_string (Device.read d ~addr ~len:(String.length s)) in
      let k = min keep (String.length s) in
      got = String.sub s 0 k ^ String.sub old k (String.length s - k))

(* -- differential: sparse device against a flat reference -------------- *)

(* The pre-sparse device: one flat zero-filled image. *)
module Flat = struct
  type t = {
    media : bytes;
    mutable last : (int * bytes) option;
    mutable reads : int;
    mutable writes : int;
    mutable bytes_written : int;
  }

  let create cap =
    { media = Bytes.make cap '\000'; last = None; reads = 0; writes = 0; bytes_written = 0 }

  let read m addr len =
    m.reads <- m.reads + 1;
    Bytes.sub m.media addr len

  let write m addr b =
    let len = Bytes.length b in
    m.last <- Some (addr, Bytes.sub m.media addr len);
    Bytes.blit b 0 m.media addr len;
    m.writes <- m.writes + 1;
    m.bytes_written <- m.bytes_written + len

  let u64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    b

  let cas m addr expected desired =
    let old = Bytes.get_int64_le m.media addr in
    if old = expected then write m addr (u64 desired);
    old

  let fetch_add m addr delta =
    let old = Bytes.get_int64_le m.media addr in
    write m addr (u64 (Int64.add old delta));
    old

  let tear m keep =
    match m.last with
    | None -> ()
    | Some (addr, pre) ->
        let len = Bytes.length pre in
        let keep = max 0 (min keep len) in
        Bytes.blit pre keep m.media (addr + keep) (len - keep);
        m.last <- None
end

(* Three chunks and a partial fourth, so the last chunk is short. *)
let diff_cap = (3 * Device.chunk_size) + 100

type op =
  | Write of int * string
  | Zero of int * int
  | Write_u64 of int * int64
  | Cas of int * bool * int64 * int64  (* [true]: expect the current value *)
  | Fetch_add of int * int64
  | Read of int * int
  | Tear of int
  | Crash_restart
  | Copy of int  (* copy device [i] over the other one *)

let show_op = function
  | Write (a, s) ->
      Printf.sprintf "Write(%d, %d bytes%s)" a (String.length s)
        (if String.for_all (( = ) '\000') s then ", zeros" else "")
  | Zero (a, n) -> Printf.sprintf "Zero(%d, %d)" a n
  | Write_u64 (a, v) -> Printf.sprintf "Write_u64(%d, %Ld)" a v
  | Cas (a, hit, e, d) -> Printf.sprintf "Cas(%d, %b, %Ld, %Ld)" a hit e d
  | Fetch_add (a, v) -> Printf.sprintf "Fetch_add(%d, %Ld)" a v
  | Read (a, n) -> Printf.sprintf "Read(%d, %d)" a n
  | Tear k -> Printf.sprintf "Tear(%d)" k
  | Crash_restart -> "Crash_restart"
  | Copy i -> Printf.sprintf "Copy(%d)" i

let gen_op =
  let open QCheck.Gen in
  let cs = Device.chunk_size in
  let len = frequency [ (4, 0 -- 64); (2, 64 -- 600); (1, cs -- ((2 * cs) + 300)) ] in
  (* A range, biased to start near a chunk boundary so that it straddles. *)
  let range =
    len >>= fun n ->
    let hi = diff_cap - n in
    oneof
      [
        0 -- hi;
        map2 (fun k d -> max 0 (min hi ((k * cs) + d))) (1 -- 3) (-80 -- 80);
      ]
    >|= fun a -> (a, n)
  in
  (* An 8-byte slot at chunk offsets 4090..4100, straddling or not. *)
  let slot = map2 (fun k o -> (k * cs) + o - cs) (1 -- 3) ((cs - 6) -- (cs + 4)) in
  let word = frequency [ (1, return 0L); (3, map Int64.of_int int) ] in
  let data n =
    frequency
      [
        (1, return (String.make n '\000'));
        (3, string_size ~gen:(frequency [ (1, return '\000'); (2, char) ]) (return n));
      ]
  in
  frequency
    [
      (6, range >>= fun (a, n) -> data n >|= fun s -> Write (a, s));
      (2, range >|= fun (a, n) -> Zero (a, n));
      (2, map2 (fun a v -> Write_u64 (a, v)) slot word);
      (2, map2 (fun (a, hit) (e, d) -> Cas (a, hit, e, d)) (pair slot bool) (pair word word));
      (2, map2 (fun a v -> Fetch_add (a, v)) slot word);
      (3, range >|= fun (a, n) -> Read (a, n));
      (2, map (fun k -> Tear k) (0 -- ((2 * cs) + 400)));
      (1, return Crash_restart);
      (1, map (fun i -> Copy i) (0 -- 1));
    ]
  |> pair (0 -- 1)

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; " (List.map (fun (i, op) -> Printf.sprintf "%d:%s" i (show_op op)) ops))
    QCheck.Gen.(list_size (1 -- 40) gen_op)

(* Run [ops] (each aimed at device 0 or 1) on two sparse devices and two
   flat models side by side: every result, [last_write_len] and counter
   must agree after every step, and the whole images at the end. *)
let prop_sparse_matches_flat =
  QCheck.Test.make ~count:300 ~name:"sparse device = flat reference" arb_ops (fun ops ->
      let mk_dev name = Device.create ~name ~capacity:diff_cap lat in
      let devs = [| mk_dev "a"; mk_dev "b" |] in
      let flats = [| Flat.create diff_cap; Flat.create diff_cap |] in
      let agree i =
        let d = devs.(i) and m = flats.(i) in
        Device.last_write_len d = Option.map (fun (_, pre) -> Bytes.length pre) m.Flat.last
        && Device.reads_performed d = m.Flat.reads
        && Device.writes_performed d = m.Flat.writes
        && Device.bytes_written d = m.Flat.bytes_written
      in
      let step (i, op) =
        let d = devs.(i) and m = flats.(i) in
        let same =
          match op with
          | Write (addr, s) ->
              Device.write d ~addr (Bytes.of_string s);
              Flat.write m addr (Bytes.of_string s);
              true
          | Zero (addr, len) ->
              Device.zero d ~addr ~len;
              Flat.write m addr (Bytes.make len '\000');
              true
          | Write_u64 (addr, v) ->
              Device.write_u64 d ~addr v;
              Flat.write m addr (Flat.u64 v);
              true
          | Cas (addr, hit, e, desired) ->
              let expected = if hit then Bytes.get_int64_le m.Flat.media addr else e in
              Device.compare_and_swap d ~addr ~expected ~desired = Flat.cas m addr expected desired
          | Fetch_add (addr, v) -> Device.fetch_add d ~addr v = Flat.fetch_add m addr v
          | Read (addr, len) -> Bytes.equal (Device.read d ~addr ~len) (Flat.read m addr len)
          | Tear keep ->
              Device.tear_last_write d ~keep;
              Flat.tear m keep;
              true
          | Crash_restart ->
              Device.crash_restart d;
              m.Flat.last <- None;
              true
          | Copy src ->
              let dst = 1 - src in
              Device.copy ~src:devs.(src) ~dst:devs.(dst);
              Bytes.blit flats.(src).Flat.media 0 flats.(dst).Flat.media 0 diff_cap;
              Device.equal devs.(0) devs.(1)
        in
        same && agree 0 && agree 1
      in
      List.for_all step ops
      && Array.for_all2
           (fun d m -> Bytes.equal (Device.read d ~addr:0 ~len:diff_cap) m.Flat.media)
           devs flats
      && Device.equal devs.(0) devs.(1) = Bytes.equal flats.(0).Flat.media flats.(1).Flat.media)

let () =
  Alcotest.run "nvm"
    [
      ( "device",
        [
          Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "cas" `Quick test_cas;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
          Alcotest.test_case "torn write" `Quick test_torn_write;
          Alcotest.test_case "torn write keep=0" `Quick test_torn_write_keep_zero;
          Alcotest.test_case "tear only once" `Quick test_tear_only_once;
          Alcotest.test_case "torn write keep=len" `Quick test_torn_write_keep_full;
          Alcotest.test_case "tear after crash/restart" `Quick test_tear_after_crash_restart;
          Alcotest.test_case "crash/restart durability" `Quick test_crash_restart_preserves;
          Alcotest.test_case "copy/equal" `Quick test_copy_equal;
          Alcotest.test_case "all-zero writes stay sparse" `Quick test_zero_write_stays_sparse;
          Alcotest.test_case "tear across three chunks" `Quick test_tear_spanning_three_chunks;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "costs" `Quick test_costs;
          QCheck_alcotest.to_alcotest prop_write_read;
          QCheck_alcotest.to_alcotest prop_tear_is_prefix;
          QCheck_alcotest.to_alcotest prop_sparse_matches_flat;
        ] );
    ]
