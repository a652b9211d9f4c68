(* Slot-compiled evaluation engine.

   [create] runs three phases once, so that the per-cycle hot path
   ([settle] / [step]) performs zero string hashing and zero expression
   tree traversal:

   1. {b Intern}: {!Flat.of_circuit} flattens the hierarchy and interns
      every flat signal into an integer slot.  Values live in one dense
      [Bits.t array] indexed by slot; the [string -> slot] table
      survives only at the API boundary ([set_input] / [peek] / VCD).
   2. {b Compile}: every flat expression is compiled into a closure
      over slot indices — operator dispatch happens here, not per
      cycle.
   3. {b Levelize}: combinational assignments and memory read ports are
      topologically ordered once ({!Flat.schedule}), so one linear
      sweep of the schedule settles the network; combinational loops
      are rejected at [create] time with the offending path. *)

type flat_reg = {
  fr_name : string;
  fr_init : Bits.t;
  fr_next : Expr.t;
}

type flat_mem = {
  fm_name : string;
  fm_width : int;
  fm_depth : int;
  fm_init : Bits.t array;
  fm_writes : Circuit.mem_write list;
  fm_reads : (string * Expr.t) list;
}

(* ------------------------------------------------------------------ *)
(* By-name view of the flat netlist                                    *)
(* ------------------------------------------------------------------ *)

let flatten (top : Circuit.t) =
  let f = Flat.of_circuit top in
  let named = Flat.to_expr f in
  let top_inputs = Hashtbl.create 16 in
  List.iter
    (fun (name, s) -> Hashtbl.add top_inputs name f.widths.(s))
    f.inputs;
  let assigns, reads =
    List.partition
      (fun (nd : Flat.node) -> nd.mem < 0)
      (Array.to_list f.nodes)
  in
  ( List.init (Array.length f.names) (fun s -> (f.names.(s), f.widths.(s))),
    top_inputs,
    List.map (fun (nd : Flat.node) -> (f.names.(nd.target), named nd.body)) assigns,
    Array.to_list
      (Array.map
         (fun (r : Flat.reg) ->
           { fr_name = f.names.(r.reg_slot); fr_init = r.reg_init;
             fr_next = named r.reg_next })
         f.regs),
    Array.to_list
      (Array.mapi
         (fun mi (m : Flat.mem) ->
           {
             fm_name = m.mem_name;
             fm_width = m.mem_width;
             fm_depth = m.mem_depth;
             fm_init = m.mem_init;
             fm_writes =
               List.map
                 (fun (w : Flat.mem_write) ->
                   { Circuit.we = named w.we; waddr = named w.waddr;
                     wdata = named w.wdata })
                 m.mem_writes;
             fm_reads =
               List.filter_map
                 (fun (nd : Flat.node) ->
                   if nd.mem = mi then Some (f.names.(nd.target), named nd.body)
                   else None)
                 reads;
           })
         f.mems) )

(* ------------------------------------------------------------------ *)
(* Compile flat expressions to closures over the value array.          *)
(* ------------------------------------------------------------------ *)

type compiled = unit -> Bits.t

let bits_true = Bits.of_bool true
let bits_false = Bits.of_bool false
let of_bool b = if b then bits_true else bits_false

let compile_expr (values : Bits.t array) e : compiled =
  let rec go e =
    match e with
    | Flat.Const b -> fun () -> b
    | Flat.Slot s -> fun () -> Array.unsafe_get values s
    | Flat.Select (e, hi, lo) ->
        let c = go e in
        fun () -> Bits.select (c ()) hi lo
    | Flat.Concat [ a; b ] ->
        let ca = go a and cb = go b in
        fun () -> Bits.concat (ca ()) (cb ())
    | Flat.Concat es ->
        let cs = Array.of_list (List.map go es) in
        if Array.length cs = 0 then invalid_arg "Interp: empty concat";
        fun () ->
          let acc = ref (cs.(0) ()) in
          for i = 1 to Array.length cs - 1 do
            acc := Bits.concat !acc (cs.(i) ())
          done;
          !acc
    | Flat.Unop (op, e) -> (
        let c = go e in
        match op with
        | Expr.Not -> fun () -> Bits.lognot (c ())
        | Expr.Reduce_or -> fun () -> of_bool (Bits.reduce_or (c ()))
        | Expr.Reduce_and -> fun () -> of_bool (Bits.reduce_and (c ()))
        | Expr.Reduce_xor -> fun () -> of_bool (Bits.reduce_xor (c ())))
    | Flat.Binop (op, a, b) -> (
        let ca = go a and cb = go b in
        match op with
        | Expr.And -> fun () -> Bits.logand (ca ()) (cb ())
        | Expr.Or -> fun () -> Bits.logor (ca ()) (cb ())
        | Expr.Xor -> fun () -> Bits.logxor (ca ()) (cb ())
        | Expr.Add -> fun () -> Bits.add (ca ()) (cb ())
        | Expr.Sub -> fun () -> Bits.sub (ca ()) (cb ())
        | Expr.Mul -> fun () -> Bits.mul (ca ()) (cb ())
        | Expr.Smul -> fun () -> Bits.smul (ca ()) (cb ())
        | Expr.Eq -> fun () -> of_bool (Bits.equal (ca ()) (cb ()))
        | Expr.Neq -> fun () -> of_bool (not (Bits.equal (ca ()) (cb ())))
        | Expr.Ult -> fun () -> of_bool (Bits.ult (ca ()) (cb ()))
        | Expr.Ule -> fun () -> of_bool (Bits.ule (ca ()) (cb ())))
    | Flat.Mux (c, a, b) ->
        let cc = go c and ca = go a and cb = go b in
        fun () -> if Bits.reduce_or (cc ()) then ca () else cb ()
    | Flat.Shift_left (e, k) ->
        let c = go e in
        fun () -> Bits.shift_left (c ()) k
    | Flat.Shift_right (e, k) ->
        let c = go e in
        fun () -> Bits.shift_right (c ()) k
  in
  go e

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

type creg = { cr_slot : int; cr_init : Bits.t; cr_next : compiled }

type cwrite = { cw_we : compiled; cw_addr : compiled; cw_data : compiled }

type cmem = {
  cm_name : string;
  cm_width : int;
  cm_depth : int;
  cm_init : Bits.t array; (* declared image; shorter than depth pads zero *)
  cm_arr : Bits.t array;
  cm_writes : cwrite array;
  (* Pre-edge sampling buffers: writes are sampled with pre-edge values
     for every port, then committed, without allocating per step. *)
  cm_we_buf : bool array;
  cm_addr_buf : int array;
  cm_data_buf : Bits.t array;
}

type snode = { sn_slot : int; sn_eval : compiled }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault = Stuck_at_0 | Stuck_at_1 | Flip of int

type injection = {
  inj_signal : string;
  inj_fault : fault;
  inj_start : int;
  inj_cycles : int;
}

(* Injection compiled against a slot.  [ci_driven] marks signals that are
   re-evaluated every settle (combinational targets) or committed on the
   clock edge (registers); the fault transform is applied at those points.
   Undriven slots (top inputs, floating wires) are transformed once per
   step, before settling. *)
type cinj = {
  ci_slot : int;
  ci_fault : fault;
  ci_start : int;
  ci_stop : int; (* exclusive *)
  ci_driven : bool;
}

type t = {
  slots : (string, int) Hashtbl.t; (* API boundary: flat name -> slot *)
  names : string array;            (* slot -> flat name *)
  top_inputs : (string, int) Hashtbl.t; (* input name -> slot *)
  values : Bits.t array;           (* slot -> current value *)
  sched : snode array;             (* levelized combinational schedule *)
  regs : creg array;
  mems : cmem array;
  arrays : (string, Bits.t array) Hashtbl.t; (* mem flat name -> words *)
  reg_next_buf : Bits.t array;     (* pre-edge samples of register nexts *)
  driven : bool array;             (* slot -> written by sched or a reg *)
  mutable cycle : int;             (* steps taken since create/reset *)
  mutable injections : cinj array;
  mutable inj_pending : cinj list; (* registered, not yet materialized;
                                      newest first *)
  active : (int, fault) Hashtbl.t; (* slot -> fault live this cycle *)
  mutable n_active : int;
  mutable observers : (int -> unit) array;
      (* called at the per-cycle sampling point; [||] on the hot path *)
  mutable obs_pending : (int -> unit) list; (* newest first *)
}

let apply_fault f v =
  let w = Bits.width v in
  match f with
  | Stuck_at_0 -> Bits.zero w
  | Stuck_at_1 -> Bits.ones w
  | Flip i ->
      if i < 0 || i >= w then v
      else Bits.logxor v (Bits.shift_left (Bits.of_int ~width:w 1) i)

let settle t =
  if t.n_active = 0 then begin
    let sched = t.sched and values = t.values in
    for i = 0 to Array.length sched - 1 do
      let n = Array.unsafe_get sched i in
      Array.unsafe_set values n.sn_slot (n.sn_eval ())
    done
  end
  else begin
    let sched = t.sched and values = t.values and active = t.active in
    for i = 0 to Array.length sched - 1 do
      let n = Array.unsafe_get sched i in
      let v = n.sn_eval () in
      let v =
        match Hashtbl.find_opt active n.sn_slot with
        | None -> v
        | Some f -> apply_fault f v
      in
      Array.unsafe_set values n.sn_slot v
    done
  end

let clock_edge t =
  (* Sample every next-state value with pre-edge signals, then commit. *)
  let regs = t.regs and buf = t.reg_next_buf in
  for i = 0 to Array.length regs - 1 do
    Array.unsafe_set buf i ((Array.unsafe_get regs i).cr_next ())
  done;
  if t.n_active > 0 then
    for i = 0 to Array.length regs - 1 do
      match Hashtbl.find_opt t.active regs.(i).cr_slot with
      | None -> ()
      | Some f -> buf.(i) <- apply_fault f buf.(i)
    done;
  Array.iter
    (fun m ->
      for j = 0 to Array.length m.cm_writes - 1 do
        let w = m.cm_writes.(j) in
        let we = Bits.reduce_or (w.cw_we ()) in
        m.cm_we_buf.(j) <- we;
        if we then begin
          m.cm_addr_buf.(j) <- Bits.to_int_trunc (w.cw_addr ());
          m.cm_data_buf.(j) <- w.cw_data ()
        end
      done)
    t.mems;
  for i = 0 to Array.length regs - 1 do
    t.values.(regs.(i).cr_slot) <- buf.(i)
  done;
  Array.iter
    (fun m ->
      for j = 0 to Array.length m.cm_writes - 1 do
        if m.cm_we_buf.(j) then begin
          let addr = m.cm_addr_buf.(j) in
          if addr < m.cm_depth then m.cm_arr.(addr) <- m.cm_data_buf.(j)
        end
      done)
    t.mems

let create top =
  let f = Flat.of_circuit top in
  let n = Array.length f.names in
  let values = Array.make n bits_false in
  Array.iteri (fun s w -> values.(s) <- Bits.zero w) f.widths;
  let compile e = compile_expr values e in
  (* Memory storage. *)
  let arrays = Hashtbl.create 8 in
  let cmems =
    Array.map
      (fun (m : Flat.mem) ->
        let arr =
          Array.init m.mem_depth (fun i ->
              if i < Array.length m.mem_init then m.mem_init.(i)
              else Bits.zero m.mem_width)
        in
        Hashtbl.replace arrays m.mem_name arr;
        let writes =
          Array.of_list
            (List.map
               (fun (w : Flat.mem_write) ->
                 {
                   cw_we = compile w.we;
                   cw_addr = compile w.waddr;
                   cw_data = compile w.wdata;
                 })
               m.mem_writes)
        in
        let nw = Array.length writes in
        {
          cm_name = m.mem_name;
          cm_width = m.mem_width;
          cm_depth = m.mem_depth;
          cm_init = m.mem_init;
          cm_arr = arr;
          cm_writes = writes;
          cm_we_buf = Array.make (max 1 nw) false;
          cm_addr_buf = Array.make (max 1 nw) 0;
          cm_data_buf = Array.make (max 1 nw) bits_false;
        })
      f.mems
  in
  (* Levelize: combinational assignments plus memory read ports. *)
  let sched =
    match Flat.schedule f with
    | exception Flat.Combinational_cycle cycle ->
        invalid_arg
          ("Interp: combinational loop: " ^ String.concat " -> " cycle)
    | s ->
        Array.map
          (fun i ->
            let (nd : Flat.node) = f.nodes.(i) in
            let eval =
              if nd.mem < 0 then compile nd.body
              else begin
                let caddr = compile nd.body in
                let m = cmems.(nd.mem) in
                let arr = m.cm_arr and depth = m.cm_depth in
                let zero = Bits.zero m.cm_width in
                fun () ->
                  let addr = Bits.to_int_trunc (caddr ()) in
                  if addr < depth then Array.unsafe_get arr addr else zero
              end
            in
            { sn_slot = nd.target; sn_eval = eval })
          s.Flat.order
  in
  let cregs =
    Array.map
      (fun (r : Flat.reg) ->
        { cr_slot = r.reg_slot; cr_init = r.reg_init;
          cr_next = compile r.reg_next })
      f.regs
  in
  let top_inputs = Hashtbl.create 16 in
  List.iter (fun (name, s) -> Hashtbl.replace top_inputs name s) f.inputs;
  let driven = Array.make n false in
  Array.iter (fun sn -> driven.(sn.sn_slot) <- true) sched;
  Array.iter (fun (r : creg) -> driven.(r.cr_slot) <- true) cregs;
  let t =
    {
      slots = f.slots;
      names = f.names;
      top_inputs;
      values;
      sched;
      regs = cregs;
      mems = cmems;
      arrays;
      reg_next_buf = Array.make (max 1 (Array.length cregs)) bits_false;
      driven;
      cycle = 0;
      injections = [||];
      inj_pending = [];
      active = Hashtbl.create 8;
      n_active = 0;
      observers = [||];
      obs_pending = [];
    }
  in
  settle t;
  t

let reset t =
  t.cycle <- 0;
  Hashtbl.reset t.active;
  t.n_active <- 0;
  Array.iter (fun r -> t.values.(r.cr_slot) <- r.cr_init) t.regs;
  Array.iter
    (fun m ->
      Array.iteri
        (fun i _ ->
          m.cm_arr.(i) <-
            (if i < Array.length m.cm_init then m.cm_init.(i)
             else Bits.zero m.cm_width))
        m.cm_arr)
    t.mems;
  settle t

let set_input t name v =
  match Hashtbl.find_opt t.top_inputs name with
  | None -> invalid_arg (Printf.sprintf "Interp: %s is not a top input" name)
  | Some s ->
      let w = Bits.width t.values.(s) in
      if Bits.width v <> w then
        invalid_arg
          (Printf.sprintf "Interp: input %s expects width %d, got %d" name w
             (Bits.width v));
      t.values.(s) <- v

(* Registration is O(1): new observers/injections accumulate in a list
   and are appended to the dispatch array in one batch the next time the
   array is consulted.  Rebuilding the array per registration was O(n²)
   over a campaign of n injections. *)
let materialize_observers t =
  (match t.obs_pending with
  | [] -> ()
  | pending ->
      t.observers <-
        Array.append t.observers (Array.of_list (List.rev pending));
      t.obs_pending <- []);
  t.observers

let materialize_injections t =
  match t.inj_pending with
  | [] -> ()
  | pending ->
      t.injections <-
        Array.append t.injections (Array.of_list (List.rev pending));
      t.inj_pending <- []

(* Recompute the set of faults live at [t.cycle].  Undriven slots (top
   inputs, floating wires) are transformed here, once per step: stuck
   faults override whatever [set_input] stored; a [Flip] is applied only
   on its first active cycle, so a multi-cycle flip does not toggle. *)
let refresh_active t =
  materialize_injections t;
  if Array.length t.injections > 0 || t.n_active > 0 then begin
    Hashtbl.reset t.active;
    t.n_active <- 0;
    Array.iter
      (fun ci ->
        if t.cycle >= ci.ci_start && t.cycle < ci.ci_stop then begin
          Hashtbl.replace t.active ci.ci_slot ci.ci_fault;
          t.n_active <- t.n_active + 1;
          if not ci.ci_driven then begin
            match ci.ci_fault with
            | Flip _ when t.cycle > ci.ci_start -> ()
            | f -> t.values.(ci.ci_slot) <- apply_fault f t.values.(ci.ci_slot)
          end
        end)
      t.injections
  end

let step t =
  (* Next-state functions sample the pre-edge combinational values; after
     the edge the combinational logic is re-settled so outputs reflect the
     new state. *)
  refresh_active t;
  settle t;
  (* Sampling point: observers see exactly the pre-edge values the
     registers are about to latch — the view a synthesized assertion
     sampled at the rising edge would have (faults included, since they
     are already folded into the settled values). *)
  (let obs = materialize_observers t in
   if Array.length obs > 0 then
     for i = 0 to Array.length obs - 1 do
       (Array.unsafe_get obs i) t.cycle
     done);
  clock_edge t;
  settle t;
  t.cycle <- t.cycle + 1

let run t n =
  for _ = 1 to n do
    step t
  done

let peek t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> t.values.(s)
  | None -> raise Not_found

let peek_int t name = Bits.to_int_trunc (peek t name)

let peek_mem t name addr =
  match Hashtbl.find_opt t.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp.peek_mem: address out of range";
      arr.(addr)

let poke_mem t name addr v =
  match Hashtbl.find_opt t.arrays name with
  | None -> raise Not_found
  | Some arr ->
      if addr < 0 || addr >= Array.length arr then
        invalid_arg "Interp.poke_mem: address out of range";
      arr.(addr) <- v

let signal_names t = Array.to_list t.names |> List.sort compare

let reader t name =
  match Hashtbl.find_opt t.slots name with
  | None -> raise Not_found
  | Some s -> fun () -> t.values.(s)

let on_cycle t f = t.obs_pending <- f :: t.obs_pending

let clear_observers t =
  t.observers <- [||];
  t.obs_pending <- []

let memories t =
  Array.to_list (Array.map (fun m -> (m.cm_name, m.cm_depth)) t.mems)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Fault-injection API                                                 *)
(* ------------------------------------------------------------------ *)

let current_cycle t = t.cycle

let inject t injs =
  let compile_inj inj =
    let s =
      match Hashtbl.find_opt t.slots inj.inj_signal with
      | Some s -> s
      | None ->
          invalid_arg
            (Printf.sprintf "Interp.inject: unknown signal %s" inj.inj_signal)
    in
    if inj.inj_start < 0 then
      invalid_arg
        (Printf.sprintf "Interp.inject: %s: negative start cycle"
           inj.inj_signal);
    if inj.inj_cycles < 1 then
      invalid_arg
        (Printf.sprintf "Interp.inject: %s: duration must be >= 1 cycle"
           inj.inj_signal);
    (match inj.inj_fault with
    | Flip i ->
        let w = Bits.width t.values.(s) in
        if i < 0 || i >= w then
          invalid_arg
            (Printf.sprintf "Interp.inject: %s: flip bit %d out of range 0..%d"
               inj.inj_signal i (w - 1))
    | Stuck_at_0 | Stuck_at_1 -> ());
    {
      ci_slot = s;
      ci_fault = inj.inj_fault;
      ci_start = inj.inj_start;
      ci_stop = inj.inj_start + inj.inj_cycles;
      ci_driven = t.driven.(s);
    }
  in
  (* Validate (and resolve slots) eagerly so errors surface at the call,
     but defer the array rebuild to the next [refresh_active]. *)
  List.iter
    (fun inj -> t.inj_pending <- compile_inj inj :: t.inj_pending)
    injs

let clear_injections t =
  t.injections <- [||];
  t.inj_pending <- [];
  Hashtbl.reset t.active;
  t.n_active <- 0

(* ------------------------------------------------------------------ *)
(* State snapshot                                                      *)
(* ------------------------------------------------------------------ *)

type state = {
  st_cycle : int;
  st_values : (string * Bits.t) array;
  st_mems : (string * Bits.t array) array;
}

let export_state t =
  {
    st_cycle = t.cycle;
    st_values = Array.mapi (fun i v -> (t.names.(i), v)) t.values;
    st_mems = Array.map (fun m -> (m.cm_name, Array.copy m.cm_arr)) t.mems;
  }

let import_state t st =
  if st.st_cycle < 0 then invalid_arg "Interp.import_state: negative cycle";
  if Array.length st.st_values <> Array.length t.values then
    invalid_arg
      (Printf.sprintf
         "Interp.import_state: snapshot has %d signals, design has %d"
         (Array.length st.st_values) (Array.length t.values));
  Array.iter
    (fun (name, v) ->
      match Hashtbl.find_opt t.slots name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp.import_state: unknown signal %s" name)
      | Some s ->
          let w = Bits.width t.values.(s) in
          if Bits.width v <> w then
            invalid_arg
              (Printf.sprintf
                 "Interp.import_state: %s: snapshot width %d, design width %d"
                 name (Bits.width v) w);
          t.values.(s) <- v)
    st.st_values;
  Array.iter
    (fun (name, words) ->
      match Hashtbl.find_opt t.arrays name with
      | None ->
          invalid_arg
            (Printf.sprintf "Interp.import_state: unknown memory %s" name)
      | Some arr ->
          if Array.length words <> Array.length arr then
            invalid_arg
              (Printf.sprintf
                 "Interp.import_state: memory %s: snapshot depth %d, design \
                  depth %d"
                 name (Array.length words) (Array.length arr));
          Array.blit words 0 arr 0 (Array.length arr))
    st.st_mems;
  (* The snapshot was taken post-step, so every value is already settled;
     faults live at the snapshot cycle re-arm at the next [step] via
     [refresh_active] against whatever injections the caller installed. *)
  Hashtbl.reset t.active;
  t.n_active <- 0;
  t.cycle <- st.st_cycle

(* Deterministic campaign descriptor: a small LCG (same recurrence used
   by the transaction-level simulator) over the sorted signal-name list,
   so a given (design, seed, n, horizon) always yields the same faults. *)
let random_campaign t ~seed ~n ~horizon =
  if n < 0 then invalid_arg "Interp.random_campaign: negative n";
  if horizon < 1 then invalid_arg "Interp.random_campaign: horizon must be >= 1";
  let names = Array.of_list (signal_names t) in
  if Array.length names = 0 then []
  else begin
    let lcg = ref (seed land 0x3FFFFFFF) in
    let next m =
      lcg := ((!lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
      !lcg mod max 1 m
    in
    List.init n (fun _ ->
        let name = names.(next (Array.length names)) in
        let w = Bits.width t.values.(Hashtbl.find t.slots name) in
        let fault =
          match next 3 with
          | 0 -> Stuck_at_0
          | 1 -> Stuck_at_1
          | _ -> Flip (next w)
        in
        let start = next horizon in
        let cycles = 1 + next 4 in
        { inj_signal = name; inj_fault = fault; inj_start = start;
          inj_cycles = cycles })
  end
