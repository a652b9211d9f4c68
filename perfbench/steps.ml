(* Replays of single library calls, step by step through public
   functions, with a span around each layer.  The traced run uses these
   in place of [Generate.generate] and [Explore.score]; the explore
   workloads check that the replayed score equals the real one exactly,
   so the spans time the path the untraced run takes. *)

module G = Bussyn.Generate
module A = Bussyn.Archs
module C = Busgen_rtl.Circuit
module E = Busgen_rtl.Engine
module I = Busgen_rtl.Interp
module B = Busgen_rtl.Bits
module Tb = Busgen_rtl.Testbench
module Traffic = Busgen_verify.Traffic
module X = Busgen_explore.Explore
module Xp = Busgen_explore.Profile

let builder = function
  | G.Bfba -> A.bfba
  | G.Gbavi -> A.gbavi
  | G.Gbavii -> A.gbavii
  | G.Gbaviii -> A.gbaviii
  | G.Hybrid -> A.hybrid
  | G.Splitba -> A.splitba
  | G.Ggba -> A.ggba
  | G.Ccba -> A.ccba

(* [Generate.generate]: build the architecture, then cost it with the
   Area gate model and the Depth critical-path model. *)
let generate arch config =
  Trace.count "core.generate.calls" 1.;
  let generated = Trace.span "core.generate" (fun () -> builder arch config) in
  let top = generated.A.top in
  let area = Trace.span "rtl.area" (fun () -> Busgen_rtl.Area.of_circuit top) in
  let depth = Trace.span "rtl.depth" (fun () -> Busgen_rtl.Depth.of_circuit top) in
  {
    G.arch;
    config;
    generated;
    generation_time_ms = 0.;
    gate_count = Busgen_rtl.Area.gates area;
    register_bits = area.Busgen_rtl.Area.register_bits;
    memory_bits = area.Busgen_rtl.Area.memory_bits;
    module_count = 1 + List.length (C.sub_circuits top);
    depth_levels = depth.Busgen_rtl.Depth.levels;
  }

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* [Explore.score], step by step.  [Engine.create] flattens the design
   itself; the standalone [Interp.flatten] before it is timed as
   rtl.flatten and subtracted from the engine span when the per-layer
   figures are formed (see Layers.tape_compile_ms). *)
let score (p : Xp.t) (c : X.candidate) =
  let config = X.config_of p c in
  let r = generate c.X.ca_arch config in
  let top = r.G.generated.A.top in
  let decls =
    Trace.span "rtl.flatten" (fun () ->
        let decls, _, _, _, _ = I.flatten top in
        decls)
  in
  Trace.count "rtl.flatten.designs" 1.;
  Trace.count "rtl.flatten.signals" (float_of_int (List.length decls));
  let sim = Trace.span "rtl.tape_compile" (fun () -> E.create ~kind:E.default_kind top) in
  let inputs = C.inputs top in
  let fresh_tb injs =
    E.clear_injections sim;
    E.clear_observers sim;
    E.reset sim;
    List.iter
      (fun (pt : C.port) -> E.set_input sim pt.C.port_name (B.zero pt.C.port_width))
      inputs;
    E.settle sim;
    if injs <> [] then E.inject sim injs;
    Tb.of_engine sim
  in
  let drive_traffic tb =
    let tr = Traffic.create tb ~arch:c.X.ca_arch ~config ~seed:p.Xp.seed in
    let ok =
      try
        for _ = 1 to p.Xp.transactions do
          Traffic.step tr
        done;
        true
      with Tb.Timeout _ -> false
    in
    (ok, Traffic.stats tr ~cycles:(Tb.cycles tb))
  in
  let ok, golden =
    Trace.span "rtl.simulate" (fun () -> drive_traffic (fresh_tb []))
  in
  Trace.count "rtl.simulate.cycles" (float_of_int golden.Traffic.cycles);
  Trace.count "verify.traffic.transactions" (float_of_int golden.Traffic.transactions);
  Trace.count "verify.traffic.mismatches" (float_of_int golden.Traffic.mismatches);
  if not ok then failwith (X.label c ^ ": fault-free traffic timed out");
  let rel_num, rel_den, detected =
    if p.Xp.faults = 0 then (1, 1, 0)
    else
      Trace.span "rtl.fault_sim" (fun () ->
          let horizon = max 1 golden.Traffic.cycles in
          let campaign =
            E.random_campaign sim ~seed:p.Xp.fault_seed ~n:p.Xp.faults ~horizon
          in
          let watch =
            List.filter
              (fun s ->
                contains s "parity_error" || contains s "bus_timeout"
                || contains s "par_err" || contains s "wd_to")
              (E.signal_names sim)
          in
          let survived = ref 0 and det = ref 0 in
          List.iter
            (fun inj ->
              let tb = fresh_tb [ inj ] in
              let flagged = ref false in
              if watch <> [] then
                E.on_cycle sim (fun _ ->
                    if (not !flagged) && List.exists (fun s -> E.peek_int sim s <> 0) watch
                    then flagged := true);
              let ok, st = drive_traffic tb in
              Trace.count "rtl.fault_sim.cycles" (float_of_int st.Traffic.cycles);
              if ok && st.Traffic.mismatches = 0 then incr survived;
              if !flagged then incr det)
            campaign;
          E.clear_observers sim;
          E.clear_injections sim;
          Trace.count "rtl.fault_sim.injections" (float_of_int p.Xp.faults);
          Trace.count "rtl.fault_sim.survived" (float_of_int !survived);
          (!survived, p.Xp.faults, !det))
  in
  {
    X.sc_label = X.label c;
    sc_arch = String.lowercase_ascii (G.arch_name c.X.ca_arch);
    sc_width = c.X.ca_width;
    sc_depth = c.X.ca_depth;
    sc_arb = Busgen_modlib.Arbiter.policy_name c.X.ca_arb;
    sc_protect = c.X.ca_protect;
    sc_gates = r.G.gate_count;
    sc_cycles = golden.Traffic.cycles;
    sc_transactions = golden.Traffic.transactions;
    sc_mismatches = golden.Traffic.mismatches;
    sc_rel_num = rel_num;
    sc_rel_den = rel_den;
    sc_detected = detected;
  }
