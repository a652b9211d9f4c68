(* The RTL fault-injection campaign behind the CLI [inject] command and
   the serve [inject] job.  Every run replays one seeded input schedule
   and records the top outputs and protection taps each cycle; a faulty
   run is classified against the golden one.  Names are resolved to
   engine handles once per run, so the per-cycle loop looks nothing up
   and every value travels as an int. *)

open Bussyn
module E = Busgen_rtl.Engine
module C = Busgen_rtl.Circuit
module B = Busgen_rtl.Bits

type t = {
  inputs : string array;
  observed : string array; (* top outputs, then protection taps *)
  n_out : int;
  schedule : int array array; (* cycle -> value per input *)
}

(* Values cross the handles as ints, which hold 62 bits exactly. *)
let check_width name w =
  if w > 62 then
    invalid_arg
      (Printf.sprintf "Campaign: %s is %d bits wide; at most 62 are supported"
         name w)

let prepare sim top ~seed ~cycles =
  let inputs = C.inputs top in
  let outputs = List.map (fun (p : C.port) -> p.C.port_name) (C.outputs top) in
  (* The protection strobes exported by the boundary modules (they
     dangle into nc_ wires at the system level but remain observable
     flat signals). *)
  let watch = List.filter Archs.is_protection_tap (E.signal_names sim) in
  let observed = Array.of_list (outputs @ watch) in
  List.iter (fun (p : C.port) -> check_width p.C.port_name p.C.port_width)
    inputs;
  Array.iter (fun s -> check_width s (B.width (E.peek sim s))) observed;
  let lcg = ref ((seed lxor 0x5EED) land 0x3FFFFFFF) in
  let next () =
    lcg := ((!lcg * 1664525) + 1013904223) land 0x3FFFFFFF;
    !lcg
  in
  let schedule =
    Array.init cycles (fun _ ->
        Array.of_list
          (List.map
             (fun (p : C.port) ->
               B.to_int_trunc
                 (B.init p.C.port_width (fun _ -> next () land 1 = 1)))
             inputs))
  in
  {
    inputs =
      Array.of_list (List.map (fun (p : C.port) -> p.C.port_name) inputs);
    observed;
    n_out = List.length outputs;
    schedule;
  }

let protected t = Array.length t.observed > t.n_out

let trace t sim =
  let drive = Array.map (E.int_writer sim) t.inputs in
  let probe = Array.map (E.int_reader sim) t.observed in
  E.reset sim;
  Array.map
    (fun ins ->
      Array.iteri (fun i v -> drive.(i) v) ins;
      E.step sim;
      Array.map (fun r -> r ()) probe)
    t.schedule

let classify t ~golden faulty =
  let corrupt = ref false and flagged = ref false in
  Array.iteri
    (fun cy vals ->
      let want = golden.(cy) in
      Array.iteri
        (fun i v ->
          if v <> want.(i) then
            if i < t.n_out then corrupt := true else flagged := true)
        vals)
    faulty;
  (!corrupt, !flagged)
