(* Shared helpers: clocks, order statistics, process memory, the result
   line, and the comparison used by every correctness check. *)

let now = Unix.gettimeofday

(* Domains given to the program: [d], but never more than the machine's
   CPUs.  Each workload pins its own count rather than reading
   GALLEY_DOMAINS, so that every run measures the same configuration. *)
let domains_at_most (d : int) : int = max 1 (min d (Domain.recommended_domain_count ()))

(* How many times a run sets up its workload; setup_s is the median. *)
let setups = 5

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* Samples above percentile [p] of [n]. *)
let beyond (n : int) (p : float) : int = n - 1 - int_of_float (p *. float_of_int (n - 1))

let median (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      scan ())

(* Bytes allocated by the calling domain so far, from [Gc.quick_stat]. *)
let allocated_bytes () : float =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* Tolerance of every floating-point check: the program may sum in
   another order than the reference, nothing more. *)
let close ~(want : float) (got : float) : bool =
  Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)

(* One metric of the result line: name, value, unit. *)
type metric = string * float * string

let print_result ~(correct : bool) ~(attempted : int) ~(failed : int)
    (metrics : metric list) : unit =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       correct attempted failed);
  List.iteri
    (fun i (name, v, unit) ->
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "metric %s is not finite" name);
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v
           unit))
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let ratio (num : float) (den : float) : float = if den > 0.0 then num /. den else 0.0

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
