(* One back-end (and optionally one NVM-backed mirror) built from the
   layers' public constructors, plus the client and value helpers every
   workload shares. *)

open Asym_sim
open Asym_core

let lat = Latency.default
let capacity = 96 * 1024 * 1024

type t = { bk : Backend.t; mirror : Mirror.t option }

let create ~mirror ~max_sessions ~oplog_cap =
  let bk =
    Backend.create ~name:"bk" ~max_sessions ~memlog_cap:(4 * 1024 * 1024) ~oplog_cap
      ~slab_size:4096 ~capacity lat
  in
  let mirror =
    if mirror then begin
      let m = Mirror.create ~name:"bk.m1" ~kind:Mirror.Nvm_backed ~capacity lat in
      Backend.attach_mirror bk m;
      Some m
    end
    else None
  in
  { bk; mirror }

(* A client whose clock starts where the back-end's NIC and CPU are free,
   so it does not queue behind set-up traffic. *)
let connect t ~name cfg =
  let clk = Clock.create ~name () in
  Clock.wait_until clk (Timeline.free_at (Backend.nic t.bk));
  Clock.wait_until clk (Timeline.free_at (Backend.cpu t.bk));
  Client.connect ~name cfg t.bk ~clock:clk

(* Front-end cache sized as a share of the NVM in use (the paper's 10%). *)
let cache_bytes t share =
  let used = Backend.used_slabs t.bk * (Backend.layout t.bk).Layout.slab_size in
  max (8 * 1024) (int_of_float (float_of_int used *. share))

(* 64-byte values that are a pure function of the key, so any value read
   back can be checked without remembering who wrote it. *)
let value_size = 64

let value_of key =
  let b = Bytes.create value_size in
  for i = 0 to (value_size / 8) - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.add (Int64.mul key 0x9E3779B97F4A7C15L) (Int64.of_int i))
  done;
  b
