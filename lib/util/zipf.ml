type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  rng : Rng.t;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. (float_of_int i ** theta))
  done;
  !sum

let create ?(theta = 0.99) ~n rng =
  assert (n > 0);
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; rng }

let next t =
  let u = Rng.float t.rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** t.theta) then 1
  else
    let v =
      float_of_int t.n
      *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha)
    in
    let k = int_of_float v in
    if k >= t.n then t.n - 1 else if k < 0 then 0 else k

(* FNV-1a 64-bit, the same scrambling YCSB applies. *)
let fnv1a_64 x =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  for shift = 0 to 7 do
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * shift)) 0xFFL) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
  done;
  !h

let next_scrambled t =
  let rank = next t in
  let h = fnv1a_64 (Int64.of_int rank) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int t.n))

let theta t = t.theta
