(* The MSn master-slave system-on-chip of the paper (Fig. 4), explored the
   way its designer would:

     dune exec examples/ms_soc.exe

   - yield as the chip grows (more slave clusters at a fixed defect
     budget): the paper's Table 4 observation that MSn yield *rises* with
     n, because the fixed lethal-defect probability spreads over more
     components while each cluster keeps its internal redundancy;
   - yield as fab quality degrades (a lambda sweep, the classic "yield
     ramp" curve);
   - which component class limits the yield. *)

module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module Text_table = Socy_util.Text_table

let eval_yield instance ~lambda =
  let model =
    Model.create
      (D.negative_binomial ~mean:lambda ~alpha:S.alpha)
      instance.S.affect
  in
  match P.run instance.S.circuit model with
  | Ok r -> Some r
  | Error _ -> None

let () =
  print_endline "== MSn yield vs number of slave clusters (lambda = 10) ==";
  let t =
    Text_table.create ~aligns:[ Left; Right; Right; Right; Right ]
      [ "instance"; "components"; "yield"; "ROMDD"; "CPU (s)" ]
  in
  List.iter
    (fun n ->
      let instance = S.ms n in
      match eval_yield instance ~lambda:10.0 with
      | None -> ()
      | Some r ->
          Text_table.add_row t
            [
              instance.S.label;
              string_of_int (Array.length instance.S.affect);
              Printf.sprintf "%.4f" r.P.yield_lower;
              Text_table.group_thousands r.P.romdd_size;
              Printf.sprintf "%.2f" r.P.cpu_seconds;
            ])
    [ 1; 2; 3; 4; 5 ];
  print_string (Text_table.render t);

  print_endline "\n== MS2 yield ramp: yield vs expected defects ==";
  let t =
    Text_table.create ~aligns:[ Right; Right; Right ]
      [ "lambda"; "lethal (l')"; "yield" ]
  in
  let instance = S.ms 2 in
  List.iter
    (fun lambda ->
      match eval_yield instance ~lambda with
      | None -> ()
      | Some r ->
          Text_table.add_row t
            [
              Printf.sprintf "%.0f" lambda;
              Printf.sprintf "%.1f" (lambda *. S.p_lethal);
              Printf.sprintf "%.4f" r.P.yield_lower;
            ])
    [ 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 ];
  print_string (Text_table.render t);

  print_endline "\n== MS2: which component class limits yield? ==";
  let instance = S.ms 2 in
  let model =
    Model.create (D.negative_binomial ~mean:10.0 ~alpha:S.alpha) instance.S.affect
  in
  let gains =
    match
      Socy_core.Importance.yield_gain ~names:instance.S.component_names
        instance.S.circuit model
    with
    | Ok (_, entries) -> entries
    | Error f -> failwith (P.failure_to_string f)
  in
  (* top five *)
  List.iteri
    (fun i e ->
      if i < 5 then
        Printf.printf "  %-10s gain %+.5f\n" e.Socy_core.Importance.name
          e.Socy_core.Importance.gain)
    gains;
  print_endline
    "(master IP cores dominate: they are both the most defect-prone and\n\
     \ the least redundant part of the architecture)"
