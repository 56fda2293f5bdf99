(* Bad scripts and bad configurations get a diagnostic and a documented
   exit code, never an uncaught exception (exit 125) or a silent
   misrun: [Otter.Config.make] and [Machine.faults_of_spec] reject what
   cannot run, and everything they accept runs to a typed outcome (or,
   under a fault model without a failure detector, the typed deadlock
   verdict). *)

let t name f = Alcotest.test_case name `Quick f

(* --- configurations --------------------------------------------------- *)

let script =
  "A = ones(6, 6);\nB = A * A;\nv = B(:, 2);\ns = sum(v);\nfor k = 1:3\n\
  \  s = s + max(circshift(v, k));\nend\n"

let compiled = lazy (Otter.compile script)

(* A fault spec drawn from every key, with values on both sides of the
   valid ranges. *)
let spec_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (4, oneofl [ 0.; 0.02; 0.05; 0.3; 1. ]);
        (1, oneofl [ -0.5; -1.; 1.5; 2.; nan; infinity ]);
        (1, float_range (-0.2) 1.2);
      ]
  in
  let field =
    oneofl
      [
        "drop"; "dup"; "delay"; "delay_factor"; "stall"; "stall_time"; "degrade";
        "degrade_factor"; "degrade_period"; "detect"; "kill"; "kill_window";
        "kill_time";
      ]
    >>= fun k -> map (fun v -> Printf.sprintf "%s=%g" k v) value
  in
  let int_field =
    oneofl [ "seed"; "kill_rank" ] >>= fun k ->
    map (fun v -> Printf.sprintf "%s=%d" k v) (int_range (-2) 5)
  in
  map (String.concat ",") (list_size (int_range 1 4) (frequency [ (4, field); (1, int_field) ]))

type draw = {
  nprocs : int;
  spec : string option;
  reliable : bool;
  chaos : bool;
  ckpt : float;
  recoveries : int;
}

let draw_gen =
  let open QCheck.Gen in
  let mostly valid invalid = frequency [ (6, valid); (1, invalid) ] in
  let* nprocs = mostly (int_range 1 6) (int_range (-1) 0) in
  let* spec = opt spec_gen in
  let* reliable = bool in
  let* chaos = bool in
  let* ckpt = mostly (oneofl [ 0.; 0.002; 0.05 ]) (oneofl [ -0.01; -1.; nan ]) in
  let+ recoveries = mostly (int_range 0 3) (int_range (-3) (-1)) in
  { nprocs; spec; reliable; chaos; ckpt; recoveries }

let print_draw d =
  Printf.sprintf "-p %d --faults %s%s%s --ckpt-interval %g --max-recoveries %d"
    d.nprocs
    (Option.value d.spec ~default:"(none)")
    (if d.reliable then " --reliable" else "")
    (if d.chaos then " --chaos" else "")
    d.ckpt d.recoveries

let config_of d =
  let machine = Mpisim.Machine.meiko_cs2 in
  match Option.map Mpisim.Machine.faults_of_spec d.spec with
  | Some (Error _) -> None
  | faults -> (
      let faults = Option.map Result.get_ok faults in
      let machine =
        if d.reliable || faults <> None then
          Mpisim.Machine.with_faults ~reliable:d.reliable ?faults machine
        else machine
      in
      match
        Otter.config ~machine ~nprocs:d.nprocs ~chaos:d.chaos
          ~ckpt_interval:d.ckpt ~max_recoveries:d.recoveries ()
      with
      | cfg -> Some cfg
      | exception Invalid_argument _ -> None)

let valid_prob x = x >= 0. && x <= 1.

(* What the two constructors must reject, independently restated. *)
let should_reject d =
  d.nprocs < 1
  || (not (d.ckpt >= 0.))
  || d.recoveries < 0
  ||
  match d.spec with
  | None -> false
  | Some s ->
      List.exists
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ ("seed" | "kill_rank"); _ ] -> false
          | [ ("drop" | "dup" | "delay" | "stall" | "degrade" | "kill"); v ] ->
              not (valid_prob (float_of_string v))
          | [ ("degrade_factor" | "degrade_period"); v ] ->
              let x = float_of_string v in
              not (Float.is_finite x && x > 0.)
          | [ _; v ] ->
              let x = float_of_string v in
              not (Float.is_finite x && x >= 0.)
          | _ -> true)
        (String.split_on_char ',' s)

(* A fault model with its failure detector switched off. *)
let detect_off d =
  match Option.map Mpisim.Machine.faults_of_spec d.spec with
  | Some (Ok f) -> f.Mpisim.Machine.detect = 0.
  | _ -> false

let prop_configs =
  Testutil.qtest ~count:150 "accepted configs run to a typed outcome"
    (QCheck.make ~print:print_draw draw_gen)
    (fun d ->
      match config_of d with
      | None -> should_reject d
      | Some cfg -> (
          (not (should_reject d))
          &&
          match Otter.run cfg (Lazy.force compiled) with
          | { Exec.State.r_result = Exec.State.Complete _ | Exec.State.Partial _; _ } -> true
          (* with detection off (detect=0) a lost message blocks its
             receiver for good: the typed deadlock verdict, exit 3 *)
          | exception Mpisim.Sim.Deadlock _ when detect_off d -> true
          | exception e ->
              QCheck.Test.fail_reportf "uncaught %s" (Printexc.to_string e)))

(* --- the otterc binary ------------------------------------------------ *)

let otterc =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/otterc.exe"

(* The example scripts, a declared dependency of the test. *)
let examples_dir () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/matlab" in
  if Sys.file_exists dir then dir else Alcotest.failf "%s not found" dir

let otterc_exit args =
  Sys.command
    (String.concat " " (Filename.quote otterc :: List.map Filename.quote args)
    ^ " > /dev/null 2>&1")

(* The exit codes [otterc run --help] documents, read from its EXIT
   STATUS section. *)
let documented_exits () =
  let help = Filename.temp_file "otterc_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove help)
    (fun () ->
      ignore
        (Sys.command
           (Filename.quote otterc ^ " run --help=plain > " ^ Filename.quote help));
      let lines = In_channel.with_open_text help In_channel.input_lines in
      let rec after = function
        | l :: rest when String.trim l = "EXIT STATUS" -> rest
        | _ :: rest -> after rest
        | [] -> []
      in
      let rec codes acc = function
        | l :: _ when String.length l > 0 && l.[0] <> ' ' -> acc
        | l :: rest ->
            let code =
              match String.split_on_char ' ' (String.trim l) with
              | w :: _ :: _ -> int_of_string_opt w
              | _ -> None
            in
            codes (Option.fold ~none:acc ~some:(fun c -> c :: acc) code) rest
        | [] -> acc
      in
      codes [] (after lines))

(* Every line prefix of every example script, and every prefix cut in
   the middle of its next line. *)
let truncations src =
  let lines = String.split_on_char '\n' src in
  let n = List.length lines in
  List.concat
    (List.init n (fun k ->
         let head = String.concat "\n" (List.filteri (fun i _ -> i < k) lines) in
         let next = List.nth lines k in
         let half = String.sub next 0 (String.length next / 2) in
         [ head; head ^ "\n" ^ half ]))
  |> List.sort_uniq compare
  |> List.filter (fun s -> s <> src)

let test_truncated_scripts () =
  let dir = examples_dir () in
  let documented = documented_exits () in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "exit %d documented" c)
        true (List.mem c documented))
    [ 0; 1; 2; 3; 7; 8 ];
  let tmp = Filename.temp_file "truncated" ".m" in
  let runs = ref 0 in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".m")
      |> List.sort compare
      |> List.iter (fun f ->
             let src = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
             List.iter
               (fun cut ->
                 Out_channel.with_open_bin tmp (fun oc -> output_string oc cut);
                 incr runs;
                 let code = otterc_exit [ "run"; tmp ] in
                 if code = 125 || not (List.mem code documented) then
                   Alcotest.failf "%s cut to %d bytes: exit %d" f
                     (String.length cut) code)
               (truncations src)));
  Alcotest.(check bool) "ran the truncations" true (!runs > 150)

let invalid_configs =
  [
    [ "--faults"; "drop=2"; "--reliable" ];
    [ "--faults"; "drop=-1" ];
    [ "--faults"; "kill=3" ];
    [ "--faults"; "dup=1.5,seed=3" ];
    [ "--faults"; "stall_time=-0.1" ];
    [ "--faults"; "detect=nan" ];
    [ "--faults"; "stall_time=inf" ];
    [ "--faults"; "degrade=0.5,degrade_period=0" ];
    [ "--faults"; "degrade=0.5,degrade_factor=0" ];
    [ "--ckpt-interval=-1" ];
    [ "--max-recoveries=-5" ];
    [ "-p"; "0" ];
    [ "--engine"; "ir" ];
  ]

let test_invalid_configs () =
  let dir = examples_dir () in
  let jacobi = Filename.concat dir "jacobi.m" in
  Alcotest.(check int) "valid run" 0 (otterc_exit [ "run"; jacobi ]);
  List.iter
    (fun flags ->
      Alcotest.(check int) (String.concat " " flags) 2
        (otterc_exit ("run" :: jacobi :: flags)))
    invalid_configs

let suite =
  [
    prop_configs;
    t "invalid run configs exit 2" test_invalid_configs;
    t "truncated scripts exit with documented codes" test_truncated_scripts;
  ]
