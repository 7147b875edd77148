(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --galley EXE

   prints one JSON result line as the last line of standard output.
   --galley names the galley CLI executable that serve_mix spawns. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let galley = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME ml_joins | subgraph_count | serve_mix");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--galley", Arg.Set_string galley, "EXE the galley CLI (serve_mix)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--galley EXE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let out_dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed)
  in
  let batch (w : Batch.workload) =
    if !trace = 0 then Batch.run_untraced w ~seed:!seed ~seconds:!seconds
    else Batch.run_traced w ~seed:!seed ~seconds:!seconds ~trace_path
  in
  match !workload with
  | "ml_joins" -> batch Ml_joins.workload
  | "subgraph_count" -> batch Subgraph_count.workload
  | "serve_mix" ->
      if !galley = "" then begin
        prerr_endline "serve_mix needs --galley EXE";
        exit 2
      end;
      if !trace = 0 then Serve_mix.run_untraced ~galley:!galley ~out_dir ~seed:!seed ~seconds:!seconds
      else Serve_mix.run_traced ~galley:!galley ~out_dir ~seed:!seed ~seconds:!seconds ~trace_path
  | other ->
      prerr_endline ("unknown workload " ^ other);
      exit 2
