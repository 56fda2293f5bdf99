(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one line per metric, a provenance line, and as its last line
   the JSON result record; exits 1 when any output was wrong.  With
   [--workload all] every workload runs in a fresh process, untraced
   and then traced.  Traced runs also write their spans, as Chrome
   trace-event JSON, under .bench_build/perfbench/. *)

open Perfbench

let usage () =
  Printf.eprintf
    "usage: main.exe --workload %s|all --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  exit 2

let trace_dir = ".bench_build/perfbench"

let write_trace name seed tr =
  let rec mkdir d =
    if not (Sys.file_exists d) then begin
      mkdir (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir trace_dir;
  let file = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" name seed) in
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string (Span.to_chrome tr)));
  file

(* Each workload in its own process, so heap and GC state do not carry
   over from one to the next. *)
let run_all ~seed ~seconds =
  let status =
    List.concat_map
      (fun (w : Workload.t) ->
        List.map
          (fun trace ->
            let args =
              [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
                 Printf.sprintf "%g" seconds; "--trace"; trace |]
            in
            let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
            match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false)
          [ "0"; "1" ])
      Workload.all
  in
  exit (if List.for_all Fun.id status then 0 else 1)

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. -> (
      if !workload = "all" then run_all ~seed ~seconds;
      match Workload.find !workload with
      | None -> usage ()
      | Some w ->
          let o = Bench.measure w w.defaults ~seed ~seconds ~trace in
          Printf.printf "workload %s (seed %d, %s run): %s\n" w.name seed
            (if trace then "traced" else "untraced") w.why;
          List.iter print_endline o.Bench.lines;
          Option.iter
            (fun tr -> Printf.printf "spans written to %s\n" (write_trace w.name seed tr))
            o.Bench.trace;
          print_endline ("provenance " ^ Json.to_string o.Bench.provenance);
          print_endline (Record.to_string o.Bench.record);
          exit (if o.Bench.record.Record.correct then 0 else 1))
  | _ -> usage ()
