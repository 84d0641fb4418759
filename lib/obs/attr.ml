(* Latency attribution: every virtual nanosecond charged to a clock
   carries one of these cause tags (Clock.advance / Clock.wait_until
   default to Local_compute; the RDMA/NVM/core layers override at each
   charging site). The sink is a flat int array so a charge is two loads
   and a store when the gate is on, and one branch when it is off. *)

type cause =
  | Rdma_rtt
  | Rdma_bytes
  | Nic_queue
  | Nvm_media
  | Lock_wait
  | Read_retry
  | Replay_wait
  | Alloc_rpc
  | Fault_retry
  | Local_compute

let all =
  [
    Rdma_rtt;
    Rdma_bytes;
    Nic_queue;
    Nvm_media;
    Lock_wait;
    Read_retry;
    Replay_wait;
    Alloc_rpc;
    Fault_retry;
    Local_compute;
  ]

let ncauses = 10

let index = function
  | Rdma_rtt -> 0
  | Rdma_bytes -> 1
  | Nic_queue -> 2
  | Nvm_media -> 3
  | Lock_wait -> 4
  | Read_retry -> 5
  | Replay_wait -> 6
  | Alloc_rpc -> 7
  | Fault_retry -> 8
  | Local_compute -> 9

let name = function
  | Rdma_rtt -> "rdma_rtt"
  | Rdma_bytes -> "rdma_bytes"
  | Nic_queue -> "nic_queue"
  | Nvm_media -> "nvm_media"
  | Lock_wait -> "lock_wait"
  | Read_retry -> "read_retry"
  | Replay_wait -> "replay_wait"
  | Alloc_rpc -> "alloc_rpc"
  | Fault_retry -> "fault_retry"
  | Local_compute -> "local_compute"

let sink = Array.make ncauses 0

let charge cause d = if Gate.enabled () && d > 0 then
    let i = index cause in
    sink.(i) <- sink.(i) + d

let get cause = sink.(index cause)
let total () = Array.fold_left ( + ) 0 sink
let reset () = Array.fill sink 0 ncauses 0

type snapshot = int array

let snapshot () = Array.copy sink

let since snap =
  List.map
    (fun c ->
      let i = index c in
      let before = if Array.length snap = ncauses then snap.(i) else 0 in
      (c, sink.(i) - before))
    all

(* Re-classify everything charged since [snap] as [cause]: the retry path
   uses this so a failed optimistic read section counts as Read_retry
   rather than as the RDMA reads it re-issued. Total charged ns is
   preserved, so conservation still holds. *)
let reattribute ~since:snap cause =
  if Gate.enabled () then begin
    let moved = ref 0 in
    List.iter
      (fun c ->
        if c <> cause then begin
          let i = index c in
          let before = if Array.length snap = ncauses then snap.(i) else 0 in
          let d = sink.(i) - before in
          if d > 0 then begin
            sink.(i) <- sink.(i) - d;
            moved := !moved + d
          end
        end)
      all;
    let i = index cause in
    sink.(i) <- sink.(i) + !moved
  end

(* -- per-clock local sinks --------------------------------------------------

   Under the verb-granular co-simulation several clocks charge into the
   global sink interleaved, so a window delta over the global sink would
   absorb other clients' causes. Each clock therefore owns a local sink;
   [local_charge] updates both, keeping the invariant that the global
   sink is the sum of all local sinks (conservation still holds
   globally), while windowed queries ([local_since]/[local_reattribute])
   see only their own clock's charges. *)

type local = int array

let local_create () = Array.make ncauses 0

let local_charge l cause d =
  if Gate.enabled () && d > 0 then begin
    let i = index cause in
    l.(i) <- l.(i) + d;
    sink.(i) <- sink.(i) + d
  end

let local_total l = Array.fold_left ( + ) 0 l
let local_snapshot l : snapshot = Array.copy l

let local_since l snap =
  List.map
    (fun c ->
      let i = index c in
      let before = if Array.length snap = ncauses then snap.(i) else 0 in
      (c, l.(i) - before))
    all

(* Like {!reattribute}, but over one clock's local window — the same
   deltas are mirrored into the global sink so it stays the sum of the
   locals. *)
let local_reattribute l ~since:snap cause =
  if Gate.enabled () then begin
    let moved = ref 0 in
    List.iter
      (fun c ->
        if c <> cause then begin
          let i = index c in
          let before = if Array.length snap = ncauses then snap.(i) else 0 in
          let d = l.(i) - before in
          if d > 0 then begin
            l.(i) <- l.(i) - d;
            sink.(i) <- sink.(i) - d;
            moved := !moved + d
          end
        end)
      all;
    let i = index cause in
    l.(i) <- l.(i) + !moved;
    sink.(i) <- sink.(i) + !moved
  end
