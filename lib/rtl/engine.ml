(* One handle over the three evaluation engines.

   Downstream subsystems (testbench, property monitors, fault
   campaigns, soak/checkpoint drivers, CLI) talk to this module instead
   of a concrete engine, so `--engine ref|slot|tape` can swap the
   evaluator without touching them.  Dispatch is one variant match per
   operation — negligible against the per-cycle work behind it. *)

type kind = Ref | Slot | Tape

let kind_to_string = function Ref -> "ref" | Slot -> "slot" | Tape -> "tape"

let kind_of_string = function
  | "ref" -> Ok Ref
  | "slot" -> Ok Slot
  | "tape" -> Ok Tape
  | s ->
      Error (Printf.sprintf "unknown engine %S (expected ref, slot or tape)" s)

let all_kinds = [ Ref; Slot; Tape ]

type t =
  | R of Interp_ref.t
  | S of Interp.t
  | T of Interp_tape.t

let default_kind = Tape

let create ?(kind = default_kind) circuit =
  match kind with
  | Ref -> R (Interp_ref.create circuit)
  | Slot -> S (Interp.create circuit)
  | Tape -> T (Interp_tape.create circuit)

let kind = function R _ -> Ref | S _ -> Slot | T _ -> Tape

(* Wrap an existing slot engine (legacy call sites that build an
   {!Interp.t} directly). *)
let of_interp sim = S sim

let reset = function
  | R s -> Interp_ref.reset s
  | S s -> Interp.reset s
  | T s -> Interp_tape.reset s

let set_input t name v =
  match t with
  | R s -> Interp_ref.set_input s name v
  | S s -> Interp.set_input s name v
  | T s -> Interp_tape.set_input s name v

let settle = function
  | R s -> Interp_ref.settle s
  | S s -> Interp.settle s
  | T s -> Interp_tape.settle s

let step = function
  | R s -> Interp_ref.step s
  | S s -> Interp.step s
  | T s -> Interp_tape.step s

let run t n =
  match t with
  | R s -> Interp_ref.run s n
  | S s -> Interp.run s n
  | T s -> Interp_tape.run s n

let peek t name =
  match t with
  | R s -> Interp_ref.peek s name
  | S s -> Interp.peek s name
  | T s -> Interp_tape.peek s name

let peek_int t name =
  match t with
  | R s -> Interp_ref.peek_int s name
  | S s -> Interp.peek_int s name
  | T s -> Interp_tape.peek_int s name

let peek_mem t name addr =
  match t with
  | R s -> Interp_ref.peek_mem s name addr
  | S s -> Interp.peek_mem s name addr
  | T s -> Interp_tape.peek_mem s name addr

let poke_mem t name addr v =
  match t with
  | R s -> Interp_ref.poke_mem s name addr v
  | S s -> Interp.poke_mem s name addr v
  | T s -> Interp_tape.poke_mem s name addr v

let signal_names = function
  | R s -> Interp_ref.signal_names s
  | S s -> Interp.signal_names s
  | T s -> Interp_tape.signal_names s

let memories = function
  | R s -> Interp_ref.memories s
  | S s -> Interp.memories s
  | T s -> Interp_tape.memories s

let on_cycle t f =
  match t with
  | R s -> Interp_ref.on_cycle s f
  | S s -> Interp.on_cycle s f
  | T s -> Interp_tape.on_cycle s f

let clear_observers = function
  | R s -> Interp_ref.clear_observers s
  | S s -> Interp.clear_observers s
  | T s -> Interp_tape.clear_observers s

let reader t name =
  match t with
  | R s -> Interp_ref.reader s name
  | S s -> Interp.reader s name
  | T s -> Interp_tape.reader s name

(* Handles: the name is looked up once, here, and the returned closure
   does no lookup.  The tape reads and writes its cells natively; ref
   and slot wrap their by-name calls, so the reference engine stays the
   spec for what a handle does. *)
let int_reader t name =
  match t with
  | T s -> Interp_tape.int_reader s name
  | R _ | S _ ->
      let r = reader t name in
      fun () -> Bits.to_int_trunc (r ())

let int_writer t name =
  match t with
  | T s -> Interp_tape.int_writer s name
  | R _ | S _ ->
      (* Re-driving an input's current value changes nothing (faults on
         inputs are stored in the value itself), and for any other name
         it raises exactly what the by-name call raises. *)
      let cur = try peek t name with Not_found -> Bits.zero 1 in
      set_input t name cur;
      let width = Bits.width cur in
      fun v -> set_input t name (Bits.of_int ~width v)

let inject t injs =
  match t with
  | R s -> Interp_ref.inject s injs
  | S s -> Interp.inject s injs
  | T s -> Interp_tape.inject s injs

let clear_injections = function
  | R s -> Interp_ref.clear_injections s
  | S s -> Interp.clear_injections s
  | T s -> Interp_tape.clear_injections s

let current_cycle = function
  | R s -> Interp_ref.current_cycle s
  | S s -> Interp.current_cycle s
  | T s -> Interp_tape.current_cycle s

let export_state = function
  | R s -> Interp_ref.export_state s
  | S s -> Interp.export_state s
  | T s -> Interp_tape.export_state s

let import_state t st =
  match t with
  | R s -> Interp_ref.import_state s st
  | S s -> Interp.import_state s st
  | T s -> Interp_tape.import_state s st

let random_campaign t ~seed ~n ~horizon =
  match t with
  | R s -> Interp_ref.random_campaign s ~seed ~n ~horizon
  | S s -> Interp.random_campaign s ~seed ~n ~horizon
  | T s -> Interp_tape.random_campaign s ~seed ~n ~horizon
