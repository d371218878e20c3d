(* Building a custom fault-tolerant architecture with the combinator API
   (no concrete syntax), then analyzing it end to end:

     dune exec examples/custom_fault_tree.exe [romdd.dot]

   With a path argument, the ROMDD's Graphviz DOT is written there;
   without one, only its size is printed.

   The design: a triple-modular-redundant (TMR) compute complex with a
   duplex voter, four memory banks of which three must survive, and a
   defect-prone interconnect:

     components 0-2   compute replicas (TMR: any 2 of 3 suffice)
     components 3-4   voters (1 of 2 suffices)
     components 5-8   memory banks (3 of 4 must work)
     component  9     interconnect (single point of failure)

   Also demonstrates: arbitrary (non negative binomial) defect count
   distributions, the ROMDD artifact, and Graphviz export. *)

module C = Socy_logic.Circuit
module P = Socy_core.Pipeline
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module Mdd = Socy_mdd.Mdd

let build_fault_tree () =
  let b = C.builder ~num_inputs:10 () in
  let x = C.input b in
  (* subsystem failure conditions, in failure logic *)
  let tmr_fails = C.at_least b 2 [ x 0; x 1; x 2 ] in
  let voters_fail = C.and_ b [ x 3; x 4 ] in
  let memory_fails = C.at_least b 2 [ x 5; x 6; x 7; x 8 ] in
  let interconnect_fails = x 9 in
  C.finish b ~name:"tmr-complex"
    (C.or_ b [ tmr_fails; voters_fail; memory_fails; interconnect_fails ])

let component_names =
  [|
    "cpu_0"; "cpu_1"; "cpu_2"; "voter_A"; "voter_B";
    "mem_0"; "mem_1"; "mem_2"; "mem_3"; "interconnect";
  |]

let () =
  let fault_tree = build_fault_tree () in
  Printf.printf "fault tree: %d components, %d gates\n" fault_tree.C.num_inputs
    (C.gate_count fault_tree);

  (* A defect-count histogram straight from (imaginary) fab data — the
     method accepts any distribution, not just the negative binomial. *)
  let defects =
    D.of_array [| 0.30; 0.25; 0.18; 0.12; 0.08; 0.04; 0.02; 0.01 |]
  in
  (* Area-weighted lethality: memories are big, the interconnect spans the
     die. *)
  let affect = [| 0.010; 0.010; 0.010; 0.002; 0.002;
                  0.015; 0.015; 0.015; 0.015; 0.006 |] in
  let model = Model.create defects affect in

  (match P.run ~config:(P.Config.make ~epsilon:1e-6 ()) fault_tree model with
  | Error f -> Printf.printf "failed — %s\n" (P.failure_to_string f)
  | Ok r ->
      Printf.printf "yield in [%.6f, %.6f]  (M = %d, ROMDD %d nodes)\n"
        r.P.yield_lower r.P.yield_upper r.P.m r.P.romdd_size);

  (* Exact per-defect-count conditional yields, by brute force (small
     instance): how many lethal defects can this design absorb? *)
  let lethal = Model.to_lethal model in
  let _, per_k = Socy_core.Brute.yield_m fault_tree lethal ~m:4 in
  print_endline "P(chip works | k lethal defects):";
  Array.iteri (fun k y -> Printf.printf "  k = %d: %.4f\n" k y) per_k;

  (* Importance: hardening which component buys the most yield? *)
  let gains =
    match Socy_core.Importance.yield_gain ~names:component_names fault_tree model with
    | Ok (_, entries) -> entries
    | Error f -> failwith (P.failure_to_string f)
  in
  print_endline "top yield gains from hardening one component:";
  List.iteri
    (fun i e ->
      if i < 3 then
        Printf.printf "  %-13s %+.5f\n" e.Socy_core.Importance.name
          e.Socy_core.Importance.gain)
    gains;

  (* Minimal cut sets explain *why* yield is lost. *)
  let cuts = Socy_bdd.Cutsets.of_circuit fault_tree in
  Printf.printf "%d minimal cut sets; the smallest:\n" (List.length cuts);
  List.iteri
    (fun rank set ->
      if rank < 4 then
        Printf.printf "  { %s }\n"
          (String.concat ", " (List.map (fun i -> component_names.(i)) set)))
    cuts;

  (* The ROMDD itself is an artifact you can inspect, and a single
     sensitivity sweep gives the exact gradient of the yield with respect
     to the victim distribution. *)
  match P.Artifacts.build ~config:(P.Config.make ~epsilon:1e-2 ()) fault_tree lethal with
  | Error _ -> ()
  | Ok a ->
      let grad = P.Artifacts.victim_sensitivities a in
      print_endline "dY/dP'_i (one ROMDD sweep; most damaging first):";
      let ranked =
        List.sort
          (fun (_, g1) (_, g2) -> compare g1 g2)
          (Array.to_list (Array.mapi (fun i g -> (i, g)) grad))
      in
      List.iteri
        (fun rank (i, g) ->
          if rank < 3 then Printf.printf "  %-13s %+.4f\n" component_names.(i) g)
        ranked;
      let dot = Mdd.to_dot a.P.Artifacts.mdd a.P.Artifacts.mdd_root in
      if Array.length Sys.argv > 1 then begin
        let file = Sys.argv.(1) in
        Out_channel.with_open_text file (fun oc -> output_string oc dot);
        Printf.printf "ROMDD (M = %d) written to %s (%d chars of Graphviz)\n"
          a.P.Artifacts.m file (String.length dot)
      end
      else
        Printf.printf "ROMDD (M = %d): %d chars of Graphviz (pass a path to write it)\n"
          a.P.Artifacts.m (String.length dot)
