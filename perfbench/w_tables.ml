(* Workload "tables": one op is one row of the paper's Tables II-V —
   the nine OFDM, five MPEG2 and two database rows simulated on the
   transaction-level Machine, and the Table V presets at 1/8/16/24 PEs
   for each of the five generated architectures.  The inputs are the
   paper's, so the seed only permutes the row order. *)

module G = Bussyn.Generate
module M = Busgen_sim.Machine
module Ofdm = Busgen_apps.Ofdm
module Mpeg2 = Busgen_apps.Mpeg2
module Database = Busgen_apps.Database
module Paper = Busgen_apps.Paper_data
module Json = Busgen_json.Json

type row =
  | Ofdm_row of string * G.arch * Ofdm.style * float
  | Mpeg2_row of string * G.arch * float
  | Db_row of string * G.arch * float
  | T5_row of G.arch * int * int option

let arch_id a = String.lowercase_ascii (G.arch_name a)

let rows =
  Array.of_list
    (List.map
       (fun (case, arch, style, paper) ->
         Ofdm_row
           (case, arch, (match style with `Ppa -> Ofdm.Ppa | `Fpa -> Ofdm.Fpa), paper))
       Paper.table2
    @ List.map (fun (case, arch, paper) -> Mpeg2_row (case, arch, paper)) Paper.table3
    @ List.map (fun (case, arch, paper) -> Db_row (case, arch, paper)) Paper.table4
    @ List.concat_map
        (fun (arch, paper) ->
          List.map (fun n -> T5_row (arch, n, List.assoc_opt n paper)) [ 1; 8; 16; 24 ])
        Paper.table5)

let row_id = function
  | Ofdm_row (case, arch, style, _) ->
      Printf.sprintf "t2/%s/%s/%s" case (arch_id arch) (Ofdm.style_name style)
  | Mpeg2_row (case, arch, _) -> Printf.sprintf "t3/%s/%s" case (arch_id arch)
  | Db_row (case, arch, _) -> Printf.sprintf "t4/%s/%s" case (arch_id arch)
  | T5_row (arch, n, _) -> Printf.sprintf "t5/%s/%d" (arch_id arch) n

(* ------------------------------------------------------------------ *)
(* Running a row                                                       *)
(* ------------------------------------------------------------------ *)

let machine_text (s : M.stats) =
  Printf.sprintf "cycles=%d transactions=%d words=%d polls=%d" s.M.cycles
    s.M.transactions s.M.words_transferred s.M.polls

(* Every simulated number of a row, as text; the measured generation
   time is left out. *)
type outcome = { text : string; ours : float option; paper : float option }

let generated_text (r : G.t) =
  Printf.sprintf "gates=%d register_bits=%d memory_bits=%d modules=%d depth=%d"
    r.G.gate_count r.G.register_bits r.G.memory_bits r.G.module_count
    r.G.depth_levels

(* The traced run replays each call's steps through the public
   functions below, with a span around each layer. *)
let advance_all app s =
  Trace.span ("sim.machine." ^ app) (fun () ->
      let rec go () =
        match M.advance s ~cycles:max_int with
        | `Done stats -> stats
        | `Running -> go ()
      in
      let stats = go () in
      Trace.count ("sim.machine." ^ app ^ ".cycles") (float_of_int stats.M.cycles);
      stats)

let run_row ~traced row =
  match row with
  | Ofdm_row (_, arch, style, paper) ->
      let r =
        if traced then
          let s, finish = Trace.span "apps.session" (fun () -> Ofdm.session arch style) in
          finish (advance_all "ofdm" s)
        else Ofdm.run arch style
      in
      {
        text =
          Printf.sprintf "%s packets=%d throughput_mbps=%.17g"
            (machine_text r.Ofdm.stats) r.Ofdm.packets r.Ofdm.throughput_mbps;
        ours = Some r.Ofdm.throughput_mbps;
        paper = Some paper;
      }
  | Mpeg2_row (_, arch, paper) ->
      let r =
        if traced then
          let s, finish = Trace.span "apps.session" (fun () -> Mpeg2.session arch) in
          finish (advance_all "mpeg2" s)
        else Mpeg2.run arch
      in
      {
        text =
          Printf.sprintf "%s gops=%d throughput_mbps=%.17g"
            (machine_text r.Mpeg2.stats) r.Mpeg2.gops r.Mpeg2.throughput_mbps;
        ours = Some r.Mpeg2.throughput_mbps;
        paper = Some paper;
      }
  | Db_row (_, arch, paper) ->
      let r =
        if traced then
          let s, finish = Trace.span "apps.session" (fun () -> Database.session arch) in
          finish (advance_all "database" s)
        else Database.run arch
      in
      {
        text =
          Printf.sprintf "%s tasks=%d execution_time_ns=%.17g"
            (machine_text r.Database.stats) r.Database.tasks
            r.Database.execution_time_ns;
        ours = Some r.Database.execution_time_ns;
        paper = Some paper;
      }
  | T5_row (arch, n_pes, paper) -> (
      let paper = Option.map float_of_int paper in
      match Bussyn.Preset.scaled ~arch ~n_pes with
      | None -> { text = "n/a"; ours = None; paper }
      | Some opts ->
          let result =
            if traced then
              (* Generate.from_options = dispatch + Generate.generate. *)
              match (G.arch_of_options opts, G.config_of_options opts) with
              | Error e, _ | _, Error e -> Error e
              | Ok arch, Ok config -> (
                  try Ok (Steps.generate arch config)
                  with Invalid_argument msg -> Error msg)
            else G.from_options opts
          in
          match result with
          | Error e -> { text = "error " ^ e; ours = None; paper }
          | Ok r ->
              {
                text = generated_text r;
                ours = Some (float_of_int r.G.gate_count);
                paper;
              })

(* Set-up a user pays before the first row: the OFDM stage-cost memo
   (forced by building any OFDM program) and the MPEG2 GOP-cost memo. *)
let setup () =
  ignore (Ofdm.programs ~arch:G.Bfba ~style:Ofdm.Ppa ~n_pes:4 ~packets:1 ());
  ignore (Mpeg2.Codec.gop_cycles ())

(* ------------------------------------------------------------------ *)
(* Golden and facts                                                    *)
(* ------------------------------------------------------------------ *)

let golden_path = "perfbench/golden/tables.txt"

let golden_text () =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun row -> Printf.sprintf "%s\t%s\n" (row_id row) (run_row ~traced:false row).text)
          rows))

(* Mean relative error of our model against the paper, per table: a
   fixed fact of the model, printed beside the timings. *)
let model_error outcomes =
  let table prefix =
    let errs =
      Array.to_list outcomes
      |> List.filter_map (fun (row, o) ->
             match (o.ours, o.paper) with
             | Some ours, Some paper
               when String.length (row_id row) > 2
                    && String.sub (row_id row) 0 2 = prefix ->
                 Some (Float.abs ((ours /. paper) -. 1.))
             | _ -> None)
    in
    let n = List.length errs in
    ( prefix,
      Json.Obj
        [
          ("rows", Json.Int n);
          ( "mean_rel_error",
            Json.Float (if n = 0 then 0. else List.fold_left ( +. ) 0. errs /. float n) );
        ] )
  in
  Json.Obj (List.map table [ "t2"; "t3"; "t4"; "t5" ])

(* ------------------------------------------------------------------ *)
(* Passes and the correctness gate                                     *)
(* ------------------------------------------------------------------ *)

let parse_golden text =
  let rf = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
          Hashtbl.replace rf (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | None -> ())
    (String.split_on_char '\n' text);
  rf

(* The seed's input: the rows in a seeded order. *)
let order ~seed =
  let rng = Random.State.make [| seed; 0x7ab1e5 |] in
  let a = Array.init (Array.length rows) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Rows whose simulated numbers differ from the reference. *)
let mismatches rf outcomes =
  Array.fold_left
    (fun bad (row, o) ->
      if Hashtbl.find_opt rf (row_id row) = Some o.text then bad else bad + 1)
    0 outcomes

let pass ?(max_reps = 5) ~rf ~order ~traced () =
  let n = Array.length rows in
  let op_s = Array.make n 0. in
  let outcomes = Array.map (fun row -> (row, { text = ""; ours = None; paper = None })) rows in
  (* Traced passes run each row once, so spans add up to the pass. *)
  let max_reps = if traced then 1 else max_reps in
  Array.iter
    (fun i ->
      let o, dt = Harness.time_op ~budget:0.02 ~max_reps (fun () -> run_row ~traced rows.(i)) in
      op_s.(i) <- dt;
      outcomes.(i) <- (rows.(i), o))
    order;
  ( {
      Harness.op_s;
      extra_s = 0.;
      wall_s = Array.fold_left ( +. ) 0. op_s;
      attempted = n;
      failed = mismatches rf outcomes;
    },
    outcomes )

(* A tampered reference must fail the last pass's outputs. *)
let tamper_trips rf outcomes =
  outcomes <> [||]
  &&
  let tampered = Hashtbl.copy rf in
  let id = row_id rows.(0) in
  Hashtbl.replace tampered id (Hashtbl.find rf id ^ "0");
  mismatches tampered outcomes > 0
