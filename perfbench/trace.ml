(* Spans and counters recorded by the benchmark's own code around calls
   into each layer's public functions.  Nothing is recorded unless
   [enabled]; spans stay in memory and are written out when the run
   ends.  A span's self time is its duration minus its children's. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** -1 at top level *)
  sp_pass : int;
  sp_start : float;
  sp_stop : float;
}

let enabled = ref false
let pass = ref 0
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Harness.cpu () in
    let close () =
      let t1 = Harness.cpu () in
      stack := List.tl !stack;
      spans :=
        { sp_id = id; sp_name = name; sp_parent = parent; sp_pass = !pass;
          sp_start = t0; sp_stop = t1 }
        :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let count name v =
  if !enabled then begin
    let key = (!pass, name) in
    let old = Option.value (Hashtbl.find_opt counters key) ~default:0. in
    Hashtbl.replace counters key (old +. v)
  end

(* Per (pass, name): summed self seconds. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        let old = Option.value (Hashtbl.find_opt child s.sp_parent) ~default:0. in
        Hashtbl.replace child s.sp_parent (old +. (s.sp_stop -. s.sp_start)))
    !spans;
  let out = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.sp_stop -. s.sp_start
        -. Option.value (Hashtbl.find_opt child s.sp_id) ~default:0.
      in
      let key = (s.sp_pass, s.sp_name) in
      let old = Option.value (Hashtbl.find_opt out key) ~default:0. in
      Hashtbl.replace out key (old +. self))
    !spans;
  out

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"pass\":%d,\"start\":%.6f,\"stop\":%.6f}\n"
            s.sp_id s.sp_name s.sp_parent s.sp_pass s.sp_start s.sp_stop)
        (List.rev !spans))
