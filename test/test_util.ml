open Asym_util

let check = Alcotest.check

(* -- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_unit_interval () =
  let r = Rng.create ~seed:11L in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "out of range: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:5L in
  let b = Rng.split a in
  check Alcotest.bool "split differs" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_uniformity () =
  let r = Rng.create ~seed:21L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let dev = abs (c - (n / 10)) in
      if dev > n / 50 then Alcotest.failf "bucket deviation too large: %d" c)
    buckets

(* -- Zipf ------------------------------------------------------------- *)

let test_zipf_range () =
  let r = Rng.create ~seed:1L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  for _ = 1 to 10_000 do
    let v = Zipf.next z in
    if v < 0 || v >= 1000 then Alcotest.failf "zipf out of range: %d" v
  done

let test_zipf_skew () =
  (* Rank 0 must be far more frequent than rank 500 under theta=0.99. *)
  let r = Rng.create ~seed:2L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let v = Zipf.next z in
    counts.(v) <- counts.(v) + 1
  done;
  check Alcotest.bool "rank0 hot" true (counts.(0) > 20 * (counts.(500) + 1))

let test_zipf_low_theta_flatter () =
  let r = Rng.create ~seed:3L in
  let hot theta =
    let z = Zipf.create ~theta ~n:1000 (Rng.copy r) in
    let c = ref 0 in
    for _ = 1 to 50_000 do
      if Zipf.next z = 0 then incr c
    done;
    !c
  in
  check Alcotest.bool "theta .99 hotter than .5" true (hot 0.99 > hot 0.5)

let test_zipf_scrambled_range () =
  let r = Rng.create ~seed:4L in
  let z = Zipf.create ~theta:0.9 ~n:12345 r in
  for _ = 1 to 10_000 do
    let v = Zipf.next_scrambled z in
    if v < 0 || v >= 12345 then Alcotest.failf "scrambled out of range: %d" v
  done

let test_zipf_scrambled_spreads () =
  (* Scrambling must move the hottest item away from rank 0 in most seeds. *)
  let r = Rng.create ~seed:5L in
  let z = Zipf.create ~theta:0.99 ~n:1000 r in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.next_scrambled z in
    counts.(v) <- counts.(v) + 1
  done;
  (* There must still be a clearly hottest key somewhere. *)
  let mx = Array.fold_left max 0 counts in
  check Alcotest.bool "still skewed" true (mx > 1000)

(* -- Crc32 ------------------------------------------------------------ *)

let test_crc32_known_value () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  check Alcotest.int32 "check vector" 0xCBF43926l (Crc32.digest_string "123456789")

let test_crc32_empty () = check Alcotest.int32 "empty" 0l (Crc32.digest_string "")

let test_crc32_detects_flip () =
  let b = Bytes.of_string "the quick brown fox" in
  let c1 = Crc32.digest_bytes b in
  Bytes.set b 4 'Q';
  check Alcotest.bool "differs" true (c1 <> Crc32.digest_bytes b)

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  check Alcotest.int32 "slice" 0xCBF43926l (Crc32.digest b ~pos:2 ~len:9)

(* -- Codec ------------------------------------------------------------ *)

let test_codec_roundtrip_fixed () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 0xAB;
  Codec.Enc.u16 e 0xBEEF;
  Codec.Enc.u32 e 0xDEADBEEFl;
  Codec.Enc.u64 e 0x1122334455667788L;
  Codec.Enc.string e "hello";
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  check Alcotest.int "u8" 0xAB (Codec.Dec.u8 d);
  check Alcotest.int "u16" 0xBEEF (Codec.Dec.u16 d);
  check Alcotest.int32 "u32" 0xDEADBEEFl (Codec.Dec.u32 d);
  check Alcotest.int64 "u64" 0x1122334455667788L (Codec.Dec.u64 d);
  check Alcotest.string "string" "hello" (Codec.Dec.string d);
  check Alcotest.int "fully consumed" 0 (Codec.Dec.remaining d)

let test_codec_bounds_check () =
  let d = Codec.Dec.of_bytes (Bytes.create 3) in
  Alcotest.check_raises "u32 out of bounds"
    (Invalid_argument "Codec.Dec: out of bounds (pos=0 need=4 len=3)") (fun () ->
      ignore (Codec.Dec.u32 d))

let test_codec_u64i_overflow () =
  let e = Codec.Enc.create () in
  Codec.Enc.u64 e Int64.min_int;
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  Alcotest.check_raises "negative u64i"
    (Invalid_argument "Codec.Dec.u64i: value does not fit in int") (fun () ->
      ignore (Codec.Dec.u64i d))

let prop_string_roundtrip =
  QCheck.Test.make ~count:300 ~name:"enc/dec string+u64 roundtrip"
    QCheck.(pair string (small_list int64))
    (fun (s, xs) ->
      let e = Codec.Enc.create () in
      Codec.Enc.string e s;
      Codec.Enc.u32i e (List.length xs);
      List.iter (Codec.Enc.u64 e) xs;
      let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
      let s' = Codec.Dec.string d in
      let n = Codec.Dec.u32i d in
      let xs' = List.init n (fun _ -> Codec.Dec.u64 d) in
      s = s' && xs = xs')

let prop_positional_accessors =
  QCheck.Test.make ~count:300 ~name:"positional u64 get/set"
    QCheck.(pair int64 (int_bound 56))
    (fun (v, pos) ->
      let b = Bytes.make 64 '\000' in
      Codec.set_u64 b pos v;
      Codec.get_u64 b pos = v)

(* -- Stats ------------------------------------------------------------- *)

let test_running_stats () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 1.0; 2.0; 3.0; 4.0 ];
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Running.mean r);
  check Alcotest.int "count" 4 (Stats.Running.count r);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Running.min r);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.Running.max r);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (Stats.Running.variance r)

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile a 50.0);
  check (Alcotest.float 1e-9) "p0" 0.0 (Stats.percentile a 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile a 100.0)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float in [0,1)" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "lower theta flatter" `Quick test_zipf_low_theta_flatter;
          Alcotest.test_case "scrambled range" `Quick test_zipf_scrambled_range;
          Alcotest.test_case "scrambled still skewed" `Quick test_zipf_scrambled_spreads;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known_value;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip;
          Alcotest.test_case "slice" `Quick test_crc32_slice;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
          Alcotest.test_case "bounds check" `Quick test_codec_bounds_check;
          Alcotest.test_case "u64i overflow" `Quick test_codec_u64i_overflow;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_positional_accessors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running" `Quick test_running_stats;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
    ]
