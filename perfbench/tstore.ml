(* The store the benchmark instantiates the structure functors over.

   [Plain] is {!Asym_core.Client} itself: the untraced runs that give the
   end-to-end figures. [Traced] implements the same Store.S around a
   client, recording one span per call (see {!Trace}); it never touches
   a clock, so simulated time is identical under both. *)

open Asym_core

module type S = sig
  include Store.S

  val of_client : id:int -> Client.t -> t
  val op_span : t -> Trace.kind -> (unit -> 'a) -> 'a
  (** Frame one structure operation (a span with a fresh op id). *)

  val run_owned : t -> (unit -> unit) -> unit
  (** Run a co-simulated client body (identity when untraced). *)

  val running_ns : t -> int
  (** Host time the client's body ran outside suspension (0 untraced). *)
end

module Plain : S with type t = Client.t = struct
  include Client

  let of_client ~id:_ c = c
  let op_span _ _ f = f ()
  let run_owned _ body = body ()
  let running_ns _ = 0
end

module Traced : S with type t = Client.t * Trace.client = struct
  type t = Client.t * Trace.client

  let of_client ~id c = (c, Trace.client id)
  let op_span (_, cl) kind f = Trace.op_span cl kind f
  let run_owned (_, cl) body = Trace.owned_turns cl body
  let running_ns (_, cl) = Trace.running_ns cl
  let sp (_, cl) kind f = Trace.span cl kind f
  let clock (c, _) = Client.clock c
  let register_ds ((c, _) as t) n = sp t Other (fun () -> Client.register_ds c n)
  let lookup_ds ((c, _) as t) n = sp t Other (fun () -> Client.lookup_ds c n)
  let read ?hint ((c, _) as t) ~addr ~len = sp t Read (fun () -> Client.read ?hint c ~addr ~len)
  let read_u64 ((c, _) as t) ?hint a = sp t Read (fun () -> Client.read_u64 c ?hint a)
  let write ((c, _) as t) ~ds ~addr b = sp t Write (fun () -> Client.write c ~ds ~addr b)
  let write_u64 ((c, _) as t) ~ds a v = sp t Write (fun () -> Client.write_u64 c ~ds a v)

  let cas_u64 ((c, _) as t) ~ds a ~expected ~desired =
    sp t Write (fun () -> Client.cas_u64 c ~ds a ~expected ~desired)

  let malloc ((c, _) as t) n = sp t Malloc (fun () -> Client.malloc c n)
  let free ((c, _) as t) a ~len = sp t Malloc (fun () -> Client.free c a ~len)

  let op_begin ((c, _) as t) ~ds ~optype ~params =
    sp t Op_begin (fun () -> Client.op_begin c ~ds ~optype ~params)

  let op_end ((c, _) as t) ~ds = sp t Op_end (fun () -> Client.op_end c ~ds)
  let pending_ops ((c, _) as t) ~ds = sp t Other (fun () -> Client.pending_ops c ~ds)
  let flush ((c, _) as t) = sp t Flush (fun () -> Client.flush c)
  let writer_lock ((c, _) as t) h = sp t Writer_lock (fun () -> Client.writer_lock c h)
  let writer_unlock ((c, _) as t) h = sp t Writer_lock (fun () -> Client.writer_unlock c h)

  (* The section body is structure code: frame it as a structure span so
     the read section's self time is the client's validation overhead. *)
  let read_section ?retry_on ((c, _) as t) h f =
    sp t Read_section (fun () ->
        Client.read_section ?retry_on c h (fun () -> sp t Section_body f))

  let invalidate_cache ((c, _) as t) = sp t Other (fun () -> Client.invalidate_cache c)
  let cache_stats (c, _) = Client.cache_stats c
  let batch_size (c, _) = Client.batch_size c
  let read_retries (c, _) = Client.read_retries c
end
