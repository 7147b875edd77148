(* subgraph_count: the Fig. 7 counting programs with the default (exact)
   optimizer, over stand-ins for the five benchmark graphs at scale 0.08
   (the quick scale of bench/main.ml): the labelled aids, human and yeast
   suites and the unlabelled dblp_lite and youtube_lite suites.

   clique4 is left out: it overshoots any deadline and, without one, runs
   for tens of seconds on dblp_lite and exhausts memory on youtube_lite,
   so it would swamp every run.

   The check counts homomorphisms by backtracking over adjacency lists,
   without Galley, [Subgraph.count_by_enumeration] or the relational
   engine. *)

module W = Galley_workloads
module G = W.Graphs
module S = W.Subgraph

let scale = 0.08

(* The graphs of [Graphs.benchmark_suite], drawn from [seed]. *)
let graphs ~seed : G.t list =
  let s x = max 20 (int_of_float (float_of_int x *. scale)) in
  let seed k = (seed * 100) + k in
  List.map G.symmetrize
    [
      G.erdos_renyi ~name:"aids" ~seed:(seed 1) ~n:(s 2000) ~m:(s 4000) ~n_labels:8 ();
      G.power_law ~name:"human" ~seed:(seed 2) ~n:(s 1000) ~m:(s 8000) ~n_labels:12
        ~alpha:0.55 ();
      G.erdos_renyi ~name:"yeast" ~seed:(seed 3) ~n:(s 3000) ~m:(s 6000) ~n_labels:16 ();
      G.power_law ~name:"dblp_lite" ~seed:(seed 4) ~n:(s 5000) ~m:(s 15000) ~n_labels:1
        ~alpha:0.7 ();
      G.power_law ~name:"youtube_lite" ~seed:(seed 5) ~n:(s 8000) ~m:(s 24000)
        ~n_labels:1 ~alpha:0.8 ();
    ]

(* -- the independent count ------------------------------------------- *)

(* Sorted out- and in-neighbour arrays of every vertex. *)
let adjacency (g : G.t) : int array array * int array array =
  let out_l = Array.make g.G.n [] and in_l = Array.make g.G.n [] in
  Array.iter
    (fun (u, v) ->
      out_l.(u) <- v :: out_l.(u);
      in_l.(v) <- u :: in_l.(v))
    g.G.edges;
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  (Array.map sorted out_l, Array.map sorted in_l)

let inter (a : int array) (b : int array) : int array =
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    if a.(!i) = b.(!j) then begin
      out := a.(!i) :: !out;
      incr i;
      incr j
    end
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

(* Homomorphisms of [p] into [g]: pattern vertices are assigned one at a
   time, each from the adjacency lists of its assigned pattern
   neighbours.  Once the unassigned vertices fall apart into pieces with
   no pattern edge between them, the pieces are counted separately and
   multiplied, and a last vertex is counted rather than enumerated. *)
let count_homomorphisms (g : G.t) (p : S.pattern) : float =
  let out_adj, in_adj = adjacency g in
  let all = Array.init g.G.n Fun.id in
  let assigned = Array.make p.S.vertices (-1) in
  let label_ok v c = List.for_all (fun (u, l) -> u <> v || g.G.labels.(c) = l) p.S.plabels in
  let nbrs v =
    List.filter_map
      (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
      p.S.pedges
  in
  (* Connected pieces of the pattern restricted to [vs]. *)
  let pieces (vs : int list) : int list list =
    let rec grow piece frontier rest =
      match frontier with
      | [] -> (piece, rest)
      | v :: frontier ->
          let near, rest = List.partition (fun u -> List.mem u (nbrs v)) rest in
          grow (near @ piece) (near @ frontier) rest
    in
    let rec split = function
      | [] -> []
      | v :: rest ->
          let piece, rest = grow [ v ] [ v ] rest in
          piece :: split rest
    in
    split vs
  in
  (* Images allowed for [v] by the edges to assigned vertices. *)
  let candidates v =
    let lists =
      List.filter_map
        (fun (a, b) ->
          if a = v && b <> v && assigned.(b) >= 0 then Some in_adj.(assigned.(b))
          else if b = v && a <> v && assigned.(a) >= 0 then Some out_adj.(assigned.(a))
          else None)
        p.S.pedges
    in
    let self_loop = List.mem (v, v) p.S.pedges in
    let base = match lists with [] -> all | l :: ls -> List.fold_left inter l ls in
    List.filter
      (fun c -> label_ok v c && ((not self_loop) || Array.mem c out_adj.(c)))
      (Array.to_list base)
  in
  let rec count_set (vs : int list) : float =
    List.fold_left (fun acc piece -> acc *. count_piece piece) 1.0 (pieces vs)
  and count_piece = function
    | [ v ] -> float_of_int (List.length (candidates v))
    | piece ->
        (* the vertex whose removal leaves the most pieces, then the one
           with the most assigned neighbours *)
        let score v =
          let rest = List.filter (( <> ) v) piece in
          (List.length (pieces rest), List.length (List.filter (fun u -> assigned.(u) >= 0) (nbrs v)))
        in
        let v =
          List.fold_left (fun best u -> if score u > score best then u else best)
            (List.hd piece) (List.tl piece)
        in
        let rest = List.filter (( <> ) v) piece in
        List.fold_left
          (fun acc c ->
            assigned.(v) <- c;
            let r = count_set rest in
            assigned.(v) <- -1;
            acc +. r)
          0.0 (candidates v)
  in
  count_set (List.init p.S.vertices Fun.id)

(* -- the workload ------------------------------------------------------ *)

let make ~seed : Batch.op array =
  Array.of_list
    (List.concat_map
       (fun (g : G.t) ->
         List.filter_map
           (fun (p : S.pattern) ->
             if p.S.pname = "clique4" then None
             else
               let expected = lazy (count_homomorphisms g p) in
               Some
                 {
                   Batch.label = g.G.name ^ "/" ^ p.S.pname;
                   inputs = S.bindings g p;
                   program = S.count_program p;
                   check =
                     (fun outs ->
                       Result.bind (Batch.find_output outs "count") (fun t ->
                           let got = Galley_tensor.Tensor.scalar_value t in
                           let want = Lazy.force expected in
                           if Util.close ~want got then Ok ()
                           else Error (Printf.sprintf "count = %.17g, expected %.17g" got want)));
                 })
           (S.suite_for g))
       (graphs ~seed))

(* A run completes some five hundred programs, so p95 has ten or more
   beyond it.  Two domains where the machine has them: the cyclic
   patterns' intersection kernels are the parallel layer's target. *)
let workload =
  { Batch.name = "subgraph_count"; make; tail = Some 0.95; domains = Util.domains_at_most 2 }
