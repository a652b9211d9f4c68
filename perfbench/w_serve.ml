(* Workload "serve-mix": a `bussyn_cli serve --stdio` daemon with its
   journal on and one worker, driven as a closed loop from one client
   connection with at most two requests in flight — its callers are
   scripts that wait for each reply.  One op is one request.

   The mix is an assumption: no recorded request log exists.  It holds
   every real job kind (generate, simulate, verify, fuzz, inject,
   explore) over designs drawn from a skewed pool of 16, larger than
   the daemon's 8-entry tape LRU and smaller than its 64-entry circuit
   LRU.  The multiset of requests is fixed; the seed draws each pass's
   order. *)

module Json = Busgen_json.Json
module Proto = Busgen_serve.Proto
module Exec = Busgen_serve.Exec
module Journal = Busgen_serve.Journal

(* ------------------------------------------------------------------ *)
(* The request mix                                                     *)
(* ------------------------------------------------------------------ *)

let kinds = [ "generate"; "simulate"; "verify"; "fuzz"; "inject"; "explore" ]

(* Requests of each kind in one pass.  The counts place the median
   inside the verify/inject/explore bulk and the p90 inside the
   simulate requests (five alike per architecture), not on a gap
   between kinds, where one sample more or less would move it. *)
let mix =
  [ ("generate", 14); ("verify", 11); ("inject", 11); ("explore", 11); ("simulate", 10);
    ("fuzz", 3) ]

let archs = [ "bfba"; "gbavi"; "gbavii"; "gbaviii"; "hybrid"; "splitba"; "ggba"; "ccba" ]

(* The design pool, most popular first; design k is drawn with weight
   1/(k+1). *)
let pool = List.concat_map (fun p -> List.map (fun a -> (a, p)) archs) [ false; true ]

let draw_design rng =
  let weights = List.mapi (fun k d -> (1. /. float_of_int (k + 1), d)) pool in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. weights in
  let x = Random.State.float rng total in
  let rec pick acc = function
    | [ (_, d) ] -> d
    | (w, d) :: rest -> if x < acc +. w then d else pick (acc +. w) rest
    | [] -> assert false
  in
  pick 0. weights

let params kind rng k =
  let design () =
    let arch, protect = draw_design rng in
    [ ("arch", Json.String arch); ("pes", Json.Int 2); ("protect", Json.Bool protect) ]
  in
  Json.Obj
    (match kind with
    | "generate" -> design () @ [ ("mem_addr_width", Json.Int 10) ]
    | "verify" -> design () @ [ ("cycles", Json.Int 300) ]
    | "inject" -> design () @ [ ("seed", Json.Int (k + 1)); ("n", Json.Int 4); ("cycles", Json.Int 120) ]
    | "simulate" ->
        (* The database example on Table IV's pair of architectures. *)
        let arch = if k mod 2 = 0 then "splitba" else "ggba" in
        [ ("arch", Json.String arch); ("workload", Json.String "database") ]
    | "fuzz" -> [ ("seed", Json.Int (k + 1)); ("budget", Json.Int 1); ("cycles", Json.Int 200) ]
    | "explore" ->
        let arch, _ = draw_design rng in
        [
          ( "profile",
            Json.String
              (Printf.sprintf
                 "archs = %s\nwidths = 16, 32\ndepths = 8\ntransactions = 40\nseed = %d\n"
                 arch (k + 1)) );
        ]
    | _ -> assert false)

(* (kind, params) in canonical order; fixed, independent of the seed. *)
let requests =
  let rng = Random.State.make [| 0x5e7e |] in
  Array.of_list
    (List.concat_map
       (fun (kind, n) -> List.init n (fun k -> (kind, params kind rng k)))
       mix)

let request_line ~id (kind, params) =
  Json.to_string
    (Json.Obj [ ("id", Json.String id); ("kind", Json.String kind); ("params", params) ])

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  buf : Buffer.t;
}

let spawn ~cli ~journal ~log =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--stdio"; "--journal"; journal; "-j"; "1" |]
      in_r out_w err
  in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close err;
  { pid; to_d = in_w; from_d = out_r; buf = Buffer.create 65536 }

let send d line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write d.to_d s off (Bytes.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

let rec recv d =
  let all = Buffer.contents d.buf in
  match String.index_opt all '\n' with
  | Some nl ->
      Buffer.clear d.buf;
      Buffer.add_substring d.buf all (nl + 1) (String.length all - nl - 1);
      String.sub all 0 nl
  | None -> (
      match Unix.select [ d.from_d ] [] [] 120. with
      | [], _, _ -> failwith "serve daemon: no reply within 120 s"
      | _ ->
          let n = Unix.read d.from_d chunk 0 (Bytes.length chunk) in
          if n = 0 then failwith "serve daemon closed its output";
          Buffer.add_subbytes d.buf chunk 0 n;
          recv d)

(* EOF on stdin drains the daemon; it exits 0. *)
let stop d =
  Unix.close d.to_d;
  let _, status = Unix.waitpid [] d.pid in
  Unix.close d.from_d;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "serve daemon did not drain cleanly"

let reply_id line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "id" j) Json.get_string
  | Error _ -> None

let is_ok line =
  match Json.parse line with
  | Ok j -> Json.member "ok" j = Some (Json.Bool true)
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  cli : string;
  scratch : string;
  rng : Random.State.t;  (** the seed's stream: each pass's order *)
  daemon : daemon;
  expected : (int, string) Hashtbl.t;  (** sampled index -> reply for id "ref" *)
  mutable n_pass : int;
  mutable n_probe : int;
  mutable rtt : float array list;  (** per pass, canonical index *)
  mutable wait : float array list;
  mutable exec : float array list;  (** traced passes: in-process Exec.run *)
  mutable pass_walls : float list;
  mutable last_lines : (string * string) array;  (** (request, reply) *)
}

let ref_id = "ref"

(* The reply a request with id [id] must get: the in-process reply
   with its id swapped. *)
let expected_for t i ~id =
  let r = Hashtbl.find t.expected i in
  let prefix = Printf.sprintf "{\"id\":%s" (Json.to_string (Json.String ref_id)) in
  let plen = String.length prefix in
  if String.length r >= plen && String.sub r 0 plen = prefix then
    Printf.sprintf "{\"id\":%s%s" (Json.to_string (Json.String id))
      (String.sub r plen (String.length r - plen))
  else r

let parse_rq line =
  match Proto.parse_request line with Ok rq -> rq | Error e -> failwith e

let id_of ~pass i = Printf.sprintf "p%d-%d" pass i

(* Failed requests of a pass: error replies, and sampled replies whose
   bytes differ from in-process Exec.run. *)
let check t ~expected_for replies ~pass =
  let bad = ref 0 in
  Array.iteri
    (fun i reply ->
      if not (is_ok reply) then incr bad
      else if Hashtbl.mem t.expected i && reply <> expected_for i ~id:(id_of ~pass i) then incr bad)
    replies;
  !bad

(* Each pass sends the requests in a fresh seeded order, so a request's
   repetitions queue behind different neighbours. *)
let shuffled rng =
  let order = Array.init (Array.length requests) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  order

let prepare ~cli ~seed ~scratch =
  let rng = Random.State.make [| seed; 0x5e21e |] in
  let n = Array.length requests in
  (* The sample: one request of each kind and four more, picked by the
     seed. *)
  let sample = Hashtbl.create 16 in
  List.iter
    (fun kind ->
      let of_kind = List.filter (fun i -> fst requests.(i) = kind) (List.init n Fun.id) in
      Hashtbl.replace sample (List.nth of_kind (Random.State.int rng (List.length of_kind))) ())
    kinds;
  for _ = 1 to 4 do
    Hashtbl.replace sample (Random.State.int rng n) ()
  done;
  let expected = Hashtbl.create 16 in
  Hashtbl.iter
    (fun i () ->
      let reply, _ = Exec.run (parse_rq (request_line ~id:ref_id requests.(i))) in
      Hashtbl.replace expected i reply)
    sample;
  let daemon =
    spawn ~cli ~journal:(Filename.concat scratch "journal")
      ~log:(Filename.concat scratch "serve.log")
  in
  {
    cli; scratch; rng; daemon; expected; n_pass = 0; n_probe = 0;
    rtt = []; wait = []; exec = []; pass_walls = []; last_lines = [||];
  }

(* The closed loop: keep two requests in flight, send the next as each
   reply arrives.  A request's queue wait is the time the single worker
   was still busy with the other in-flight request when it was sent. *)
let daemon_pass t order =
  let n = Array.length requests in
  let pass = t.n_pass in
  t.n_pass <- t.n_pass + 1;
  let sent = Array.make n 0. and rtt = Array.make n 0. and wait = Array.make n 0. in
  let replies = Array.make n "" and lines = Array.make n "" in
  let other_sent_at = Array.make n (-1) in
  let inflight = Hashtbl.create 4 in
  let next = ref 0 in
  let send_next () =
    let i = order.(!next) in
    incr next;
    lines.(i) <- request_line ~id:(id_of ~pass i) requests.(i);
    other_sent_at.(i) <- (match Hashtbl.fold (fun j () _ -> Some j) inflight None with Some j -> j | None -> -1);
    Hashtbl.replace inflight i ();
    sent.(i) <- Harness.wall ();
    send t.daemon lines.(i)
  in
  let index_of id =
    match String.split_on_char '-' id with
    | [ _; i ] -> int_of_string i
    | _ -> failwith ("unexpected reply id " ^ id)
  in
  let done_at = Array.make n 0. in
  let t0 = Harness.wall () in
  send_next ();
  send_next ();
  for _ = 1 to n do
    let line = recv t.daemon in
    let now = Harness.wall () in
    let i =
      match reply_id line with
      | Some id -> index_of id
      | None -> failwith ("reply without id: " ^ line)
    in
    Hashtbl.remove inflight i;
    done_at.(i) <- now;
    rtt.(i) <- now -. sent.(i);
    replies.(i) <- line;
    if !next < n then send_next ()
  done;
  let wall = Harness.wall () -. t0 in
  Array.iteri
    (fun i j -> if j >= 0 then wait.(i) <- Float.max 0. (done_at.(j) -. sent.(i)))
    other_sent_at;
  t.rtt <- rtt :: t.rtt;
  t.wait <- wait :: t.wait;
  t.pass_walls <- wall :: t.pass_walls;
  t.last_lines <- Array.mapi (fun i l -> (l, replies.(i))) lines;
  (pass, rtt, replies, wall)

(* The round trips are wall-clock: the work runs in the daemon's
   processes. *)
let pass_in t order ~traced =
  let pass, rtt, replies, wall = daemon_pass t order in
  if traced then begin
    (* The same requests through in-process Exec.run, outside the
       pass's wall. *)
    let exec =
      Array.map
        (fun r ->
          let rq = parse_rq (request_line ~id:"exec" r) in
          let t0 = Harness.wall () in
          Trace.span "serve.exec" (fun () -> ignore (Exec.run rq));
          Harness.wall () -. t0)
        requests
    in
    t.exec <- exec :: t.exec
  end;
  {
    Harness.op_s = rtt;
    extra_s = 0.;
    wall_s = wall;
    attempted = Array.length requests;
    failed = check t ~expected_for:(expected_for t) replies ~pass;
  }

let pass t ~traced = pass_in t (shuffled t.rng) ~traced

(* The warm-up pass sends the requests in canonical order, so the
   daemon's high-water RSS, read after it, does not depend on the
   seed. *)
let warm t = pass_in t (Array.init (Array.length requests) Fun.id) ~traced:false

(* Set-up: daemon spawn until its first health reply, wall-clock. *)
let probe t =
  t.n_probe <- t.n_probe + 1;
  let journal = Filename.concat t.scratch (Printf.sprintf "probe-%d" t.n_probe) in
  let t0 = Harness.wall () in
  let d =
    spawn ~cli:t.cli ~journal
      ~log:(Filename.concat t.scratch "probe.log")
  in
  send d {|{"id":"h","kind":"health"}|};
  let reply = recv d in
  let s = Harness.wall () -. t0 in
  stop d;
  if not (is_ok reply) then failwith ("health probe failed: " ^ reply);
  s

let peak_rss t = Harness.peak_rss_mb t.daemon.pid

let tamper_trips t =
  t.last_lines <> [||]
  &&
  let i = fst (List.hd (List.of_seq (Hashtbl.to_seq t.expected))) in
  let tampered j ~id = (if j = i then "x" else "") ^ expected_for t j ~id in
  check t ~expected_for:tampered (Array.map snd t.last_lines) ~pass:(t.n_pass - 1) > 0

let stats t =
  send t.daemon {|{"id":"stats","kind":"stats"}|};
  match Json.parse (recv t.daemon) with
  | Ok j -> j
  | Error e -> failwith ("stats reply: " ^ e)

let hit_frac j path =
  let get name o = Option.bind (Option.bind o (Json.member name)) Json.get_int in
  let o = List.fold_left (fun o k -> Option.bind o (Json.member k)) (Some j) path in
  match (get "hits" o, get "misses" o) with
  | Some h, Some m when h + m > 0 -> float_of_int h /. float_of_int (h + m)
  | _ -> 0.

(* Journal.accept + done_ over the last pass's request and reply
   lines, in a scratch journal: microseconds and bytes per request. *)
let journal_cost t =
  let n = Array.length t.last_lines in
  let best = ref infinity and bytes = ref 0 in
  for k = 1 to 3 do
    let dir = Filename.concat t.scratch (Printf.sprintf "jbench-%d" k) in
    let j, _ = Journal.open_ ~dir () in
    let (), s =
      Harness.timed (fun () ->
          Array.iteri
            (fun i (line, reply) ->
              let id = Printf.sprintf "j%d" i in
              Journal.accept j ~id ~line;
              Journal.done_ j ~id ~reply)
            t.last_lines)
    in
    bytes := Journal.size_bytes j;
    Journal.close j;
    best := Float.min !best s
  done;
  (1e6 *. !best /. float_of_int n, float_of_int !bytes /. float_of_int n)

(* Per canonical request: the fastest value over the given passes. *)
let per_request passes =
  match passes with
  | [] -> [||]
  | first :: _ ->
      Array.init (Array.length first) (fun i ->
          List.fold_left (fun acc a -> Float.min acc a.(i)) infinity passes)

let layer_figures t =
  let rtt = per_request t.rtt and exec = per_request t.exec in
  let ms_p50 xs = if xs = [||] then 0. else 1000. *. Harness.median xs in
  let of_kind kind xs =
    Array.of_list
      (List.filteri (fun i _ -> fst requests.(i) = kind) (Array.to_list xs))
  in
  let us_per_req, bytes_per_req = journal_cost t in
  let st = stats t in
  let cache = [ "result"; "cache" ] in
  let best_wall = List.fold_left Float.min infinity t.pass_walls in
  let exec_total =
    List.fold_left (fun acc a -> Float.min acc (Array.fold_left ( +. ) 0. a)) infinity t.exec
  in
  List.map (fun kind -> (Printf.sprintf "serve.%s.ms_p50" kind, ms_p50 (of_kind kind rtt))) kinds
  @ [
      ("serve.exec.ms_p50", ms_p50 exec);
      ( "serve.overhead.ms_p50",
        if exec = [||] then 0. else ms_p50 (Array.mapi (fun i r -> r -. exec.(i)) rtt) );
      ("serve.queue_wait.ms_p50", ms_p50 (per_request t.wait));
      ("serve.journal.us_per_req", us_per_req);
      ("serve.journal.bytes_per_req", bytes_per_req);
      ("serve.cache.circuit_hit_frac", hit_frac st (cache @ [ "circuits" ]));
      ("serve.cache.tape_hit_frac", hit_frac st (cache @ [ "tapes" ]));
      (* Share of the daemon's pass wall that is the jobs' own work. *)
      ("trace.layer_self_frac", if exec = [||] then 0. else exec_total /. best_wall);
    ]

let facts t =
  [
    ("requests_per_pass", Json.Int (Array.length requests));
    ( "mix",
      Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) mix) );
    ("designs_in_pool", Json.Int (List.length pool));
    ("sampled_for_reply_bytes", Json.Int (Hashtbl.length t.expected));
    ("mix_is_assumed", Json.Bool true);
  ]

let close t = try stop t.daemon with _ -> ()
