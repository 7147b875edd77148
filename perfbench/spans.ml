(* The traced run's spans: one per call into a layer, kept in memory and
   written as Chrome trace_event JSON when the run ends.  A span's self
   time is its duration minus the part of it its child spans cover; it
   is written beside the span's id and parent in the event's args. *)

module Trace = Galley_obs.Trace

type span = {
  id : int;
  parent : int; (* 0 = root *)
  name : string;
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref [] (* open spans of [with_span] *)

let fresh_id () =
  incr next_id;
  !next_id

let add (s : span) = spans := s :: !spans

(* A span around [f], nested under the innermost open [with_span]. *)
let with_span ?(args = []) (name : string) (f : unit -> 'a) : 'a * float =
  let id = fresh_id () in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Util.now () in
  let finish () =
    let t1 = Util.now () in
    stack := List.tl !stack;
    add { id; parent; name; t0; t1; args };
    t1 -. t0
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let write_chrome (path : string) : int =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0) +. (s.t1 -. s.t0)))
    all;
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let us x = int_of_float (Float.round (x *. 1e6)) in
  let event s =
    let self = s.t1 -. s.t0 -. try Hashtbl.find child_time s.id with Not_found -> 0.0 in
    {
      Trace.ev_name = s.name;
      ev_cat = "perfbench";
      ev_ph = 'X';
      ev_ts = us (s.t0 -. origin);
      ev_dur = us (s.t1 -. s.t0);
      ev_tid = 0;
      ev_args =
        [ ("id", string_of_int s.id); ("parent", string_of_int s.parent);
          ("self_us", string_of_int (us self)) ]
        @ s.args;
    }
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Trace.to_chrome_json (List.map event all)));
  List.length all
