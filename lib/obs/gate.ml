(* The global observability switch. Disabled by default: every
   span and attribution site in the stack checks this one flag, so a
   benchmark run with observability off pays a single predictable branch
   per site. Counters are typed fields on their nodes and ignore it. *)

let flag = ref false
let set_enabled v = flag := v
let enabled () = !flag
