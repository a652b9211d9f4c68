(* The flat netlist.  [of_circuit] walks the hierarchy twice.  The
   first walk declares: it gives every flat signal its slot in
   declaration order and records each instance's prefix.  The second
   walk connects: it resolves every expression of an instance through
   the local name table of the instance's circuit (one table per
   distinct circuit, shared by all of its instances), so no
   [prefix ^ name] string is built per reference.  Resolution waits for
   the second walk because a circuit may name a signal of one of its
   sub-instances ([u$q]) before that sub-instance is declared. *)

type expr =
  | Const of Bits.t
  | Slot of int
  | Select of expr * int * int
  | Concat of expr list
  | Unop of Expr.unop * expr
  | Binop of Expr.binop * expr * expr
  | Mux of expr * expr * expr
  | Shift_left of expr * int
  | Shift_right of expr * int

type node = { target : int; body : expr; mem : int }

type reg = { reg_slot : int; reg_init : Bits.t; reg_next : expr }

type mem_write = { we : expr; waddr : expr; wdata : expr }

type mem = {
  mem_name : string;
  mem_width : int;
  mem_depth : int;
  mem_init : Bits.t array;
  mem_writes : mem_write list;
}

type t = {
  names : string array;
  widths : int array;
  slots : (string, int) Hashtbl.t;
  inputs : (string * int) list;
  nodes : node array;
  regs : reg array;
  mems : mem array;
}

let rec of_expr resolve (e : Expr.t) =
  match e with
  | Expr.Const b -> Const b
  | Expr.Var v -> Slot (resolve v)
  | Expr.Select (x, hi, lo) -> Select (of_expr resolve x, hi, lo)
  | Expr.Concat xs -> Concat (List.map (of_expr resolve) xs)
  | Expr.Unop (op, x) -> Unop (op, of_expr resolve x)
  | Expr.Binop (op, a, b) ->
      let a = of_expr resolve a in
      Binop (op, a, of_expr resolve b)
  | Expr.Mux (c, a, b) ->
      let c = of_expr resolve c in
      let a = of_expr resolve a in
      Mux (c, a, of_expr resolve b)
  | Expr.Shift_left (x, k) -> Shift_left (of_expr resolve x, k)
  | Expr.Shift_right (x, k) -> Shift_right (of_expr resolve x, k)

let to_expr t e =
  let rec go = function
    | Const b -> Expr.Const b
    | Slot s -> Expr.Var t.names.(s)
    | Select (x, hi, lo) -> Expr.Select (go x, hi, lo)
    | Concat xs -> Expr.Concat (List.map go xs)
    | Unop (op, x) -> Expr.Unop (op, go x)
    | Binop (op, a, b) -> Expr.Binop (op, go a, go b)
    | Mux (c, a, b) -> Expr.Mux (go c, go a, go b)
    | Shift_left (x, k) -> Expr.Shift_left (go x, k)
    | Shift_right (x, k) -> Expr.Shift_right (go x, k)
  in
  go e

(* Per distinct circuit: its own declarations' names -> offset from the
   instance's first slot, their count, and what its whole subtree holds
   (slots, instances including itself, assignment nodes, memory read
   ports, registers, memories), so every array is allocated once at its
   final size. *)
type info = {
  local : (string, int) Hashtbl.t;
  own : int;
  n_slots : int;
  n_frames : int;
  n_assigns : int;
  n_reads : int;
  n_regs : int;
  n_mems : int;
}

(* Fillers for the preallocated arrays.  A large array made with a
   freshly allocated filler would force a minor collection. *)
let no_node = { target = 0; body = Slot 0; mem = -1 }
let no_reg = { reg_slot = 0; reg_init = Bits.zero 1; reg_next = Slot 0 }

let no_mem =
  { mem_name = ""; mem_width = 0; mem_depth = 0; mem_init = [||]; mem_writes = [] }

(* The instance path and circuit of the [fid]-th instance in depth-first
   order, for the duplicate-signal message. *)
let frame_str top fid =
  let k = ref 0 in
  let rec find path (c : Circuit.t) =
    if !k = fid then Some (path, c)
    else begin
      incr k;
      List.fold_left
        (fun acc (i : Circuit.instance) ->
          match acc with
          | Some _ -> acc
          | None -> find (i.inst_name :: path) i.sub)
        None c.instances
    end
  in
  match find [] top with
  | Some ([], c) -> Printf.sprintf "<top> (%s)" (Circuit.name c)
  | Some (path, c) ->
      Printf.sprintf "%s (%s)" (String.concat "." (List.rev path)) (Circuit.name c)
  | None -> "?"

let of_circuit (top : Circuit.t) =
  (* Circuits are shared between instances; key them physically. *)
  let infos = ref [] in
  let rec info (c : Circuit.t) =
    match List.assq_opt c !infos with
    | Some i -> i
    | None ->
        let local = Hashtbl.create 32 and own = ref 0 and n_reads = ref 0 in
        let add n =
          Hashtbl.replace local n !own;
          incr own
        in
        List.iter (fun (p : Circuit.port) -> add p.port_name) c.ports;
        List.iter (fun (w : Circuit.signal) -> add w.sig_name) c.wires;
        List.iter (fun (r : Circuit.reg) -> add r.reg_name) c.regs;
        List.iter
          (fun (m : Circuit.memory) ->
            List.iter
              (fun (rd, _) ->
                add rd;
                incr n_reads)
              m.reads)
          c.memories;
        let i =
          List.fold_left
            (fun acc (inst : Circuit.instance) ->
              let s = info inst.sub in
              {
                acc with
                n_slots = acc.n_slots + s.n_slots;
                n_frames = acc.n_frames + s.n_frames;
                n_assigns =
                  acc.n_assigns + s.n_assigns
                  + List.length inst.in_connections
                  + List.length inst.out_connections;
                n_reads = acc.n_reads + s.n_reads;
                n_regs = acc.n_regs + s.n_regs;
                n_mems = acc.n_mems + s.n_mems;
              })
            {
              local;
              own = !own;
              n_slots = !own;
              n_frames = 1;
              n_assigns = List.length c.assigns;
              n_reads = !n_reads;
              n_regs = List.length c.regs;
              n_mems = List.length c.memories;
            }
            c.instances
        in
        infos := (c, i) :: !infos;
        i
  in
  let ti = info top in
  let n = ti.n_slots in
  let names = Array.make n "" and widths = Array.make n 0 in
  let origin = Array.make n 0 in
  let slots = Hashtbl.create (2 * n) in
  let prefixes = Array.make ti.n_frames "" in
  (* Declare. *)
  let next = ref 0 and fid = ref 0 in
  let rec declare prefix (c : Circuit.t) =
    let f = !fid in
    prefixes.(f) <- prefix;
    incr fid;
    let decl local w =
      let name = if prefix = "" then local else prefix ^ local in
      let s = !next in
      Hashtbl.replace slots name s;
      if Hashtbl.length slots = s then begin
        (* [name] was already bound: report where it was declared first. *)
        let rec first j = if names.(j) = name then j else first (j + 1) in
        invalid_arg
          (Printf.sprintf
             "Flat: duplicate flat signal %s: first declared in instance \
              %s, collides with a declaration in instance %s"
             name
             (frame_str top origin.(first 0))
             (frame_str top f))
      end;
      names.(s) <- name;
      widths.(s) <- w;
      origin.(s) <- f;
      next := s + 1
    in
    List.iter (fun (p : Circuit.port) -> decl p.port_name p.port_width) c.ports;
    List.iter (fun (w : Circuit.signal) -> decl w.sig_name w.sig_width) c.wires;
    List.iter (fun (r : Circuit.reg) -> decl r.reg_name r.reg_width) c.regs;
    List.iter
      (fun (m : Circuit.memory) ->
        List.iter (fun (rd, _) -> decl rd m.data_width) m.reads)
      c.memories;
    List.iter
      (fun (i : Circuit.instance) -> declare (prefix ^ i.inst_name ^ "$") i.sub)
      c.instances
  in
  declare "" top;
  (* Connect, in the same depth-first order. *)
  let global name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None -> invalid_arg ("Flat: unknown signal " ^ name)
  in
  let resolver (ci : info) prefix base v =
    match Hashtbl.find_opt ci.local v with
    | Some k -> base + k
    | None -> global (prefix ^ v)
  in
  (* Assignments fill [nodes] from the front, read ports from
     [ti.n_assigns]. *)
  let nodes = Array.make (ti.n_assigns + ti.n_reads) no_node in
  let regs = Array.make ti.n_regs no_reg and mems = Array.make ti.n_mems no_mem in
  let n_assigns = ref 0 and n_reads = ref 0 and n_regs = ref 0 and n_mems = ref 0 in
  let assign nd =
    nodes.(!n_assigns) <- nd;
    incr n_assigns
  in
  let fid = ref 0 and next = ref 0 in
  let rec connect (c : Circuit.t) =
    let ci = info c and prefix = prefixes.(!fid) in
    incr fid;
    let base = !next in
    next := base + ci.own;
    let resolve = resolver ci prefix base in
    let tr = of_expr resolve in
    List.iter
      (fun (r : Circuit.reg) ->
        regs.(!n_regs) <-
          { reg_slot = resolve r.reg_name; reg_init = r.init; reg_next = tr r.next };
        incr n_regs)
      c.regs;
    List.iter
      (fun (m : Circuit.memory) ->
        let mi = !n_mems in
        mems.(mi) <-
          {
            mem_name = prefix ^ m.mem_name;
            mem_width = m.data_width;
            mem_depth = m.depth;
            mem_init = m.init;
            mem_writes =
              List.map
                (fun (w : Circuit.mem_write) ->
                  let we = tr w.we in
                  let waddr = tr w.waddr in
                  { we; waddr; wdata = tr w.wdata })
                m.writes;
          };
        incr n_mems;
        List.iter
          (fun (rd, a) ->
            nodes.(ti.n_assigns + !n_reads) <-
              { target = resolve rd; body = tr a; mem = mi };
            incr n_reads)
          m.reads)
      c.memories;
    List.iter
      (fun (a : Circuit.assign) ->
        assign { target = resolve a.target; body = tr a.expr; mem = -1 })
      c.assigns;
    List.iter
      (fun (i : Circuit.instance) ->
        let sresolve = resolver (info i.sub) prefixes.(!fid) !next in
        connect i.sub;
        List.iter
          (fun (p, e) -> assign { target = sresolve p; body = tr e; mem = -1 })
          i.in_connections;
        List.iter
          (fun (p, w) ->
            assign { target = resolve w; body = Slot (sresolve p); mem = -1 })
          i.out_connections)
      c.instances
  in
  connect top;
  {
    names;
    widths;
    slots;
    inputs =
      List.map
        (fun (p : Circuit.port) -> (p.port_name, resolver ti "" 0 p.port_name))
        (Circuit.inputs top);
    nodes;
    regs;
    mems;
  }

(* ------------------------------------------------------------------ *)
(* Levelizing                                                          *)
(* ------------------------------------------------------------------ *)

exception Combinational_cycle of string list

let levelize ~n ~name ~targets ~dep_off ~deps =
  let n_nodes = Array.length targets in
  let driver = Array.make n (-1) in
  Array.iteri (fun i s -> driver.(s) <- i) targets;
  (* id -> 0 unvisited, -1 on the search path, level + 1 once done *)
  let state = Array.make n 0 in
  let order = Array.make n_nodes 0 and levels = Array.make n_nodes 0 in
  let k = ref 0 in
  let path = Array.make n_nodes 0 and depth = ref 0 in
  let cycle s =
    (* [s] is on the path exactly once; the cycle runs from there. *)
    let rec start j = if path.(j) = s then j else start (j - 1) in
    let j = start (!depth - 1) in
    let inner = List.init (!depth - j - 1) (fun x -> path.(j + 1 + x)) in
    Combinational_cycle (List.map name ((s :: inner) @ [ s ]))
  in
  let rec visit s =
    let i = driver.(s) in
    if i < 0 then 0 (* source: input, register, constant, memory word *)
    else
      let st = state.(s) in
      if st > 0 then st - 1
      else if st < 0 then raise (cycle s)
      else begin
        state.(s) <- -1;
        path.(!depth) <- s;
        incr depth;
        let lv = ref (-1) in
        for j = dep_off.(i) to dep_off.(i + 1) - 1 do
          let l = visit deps.(j) in
          if l > !lv then lv := l
        done;
        decr depth;
        let l = !lv + 1 in
        state.(s) <- l + 1;
        order.(!k) <- i;
        levels.(!k) <- l;
        incr k;
        l
      end
  in
  Array.iter (fun s -> ignore (visit s)) targets;
  (Array.sub order 0 !k, Array.sub levels 0 !k)

type schedule = {
  order : int array;
  levels : int array;
  dep_off : int array;
  deps : int array;
}

let schedule t =
  let n = Array.length t.names and n_nodes = Array.length t.nodes in
  (* [stamp.(s) = i] once slot [s] is recorded for node [i]. *)
  let stamp = Array.make n (-1) in
  let dep_off = Array.make (n_nodes + 1) 0 in
  let deps = ref (Array.make (max 16 n_nodes) 0) and n_deps = ref 0 in
  let rec collect i = function
    | Const _ -> ()
    | Slot s ->
        if stamp.(s) <> i then begin
          stamp.(s) <- i;
          if !n_deps = Array.length !deps then begin
            let grown = Array.make (2 * !n_deps) 0 in
            Array.blit !deps 0 grown 0 !n_deps;
            deps := grown
          end;
          !deps.(!n_deps) <- s;
          incr n_deps
        end
    | Select (e, _, _) | Unop (_, e) | Shift_left (e, _) | Shift_right (e, _)
      ->
        collect i e
    | Concat es -> List.iter (collect i) es
    | Binop (_, a, b) ->
        collect i a;
        collect i b
    | Mux (c, a, b) ->
        collect i c;
        collect i a;
        collect i b
  in
  Array.iteri
    (fun i nd ->
      collect i nd.body;
      dep_off.(i + 1) <- !n_deps)
    t.nodes;
  let deps = Array.sub !deps 0 !n_deps in
  let order, levels =
    levelize ~n
      ~name:(fun s -> t.names.(s))
      ~targets:(Array.map (fun nd -> nd.target) t.nodes)
      ~dep_off ~deps
  in
  { order; levels; dep_off; deps }
