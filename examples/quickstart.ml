(* Quickstart: evaluate the yield of a small fault-tolerant system-on-chip.

     dune exec examples/quickstart.exe

   The system: two processor cores behind a shared memory — the chip works
   while at least one core works AND the memory works. Components:
     x0 = core A failed, x1 = core B failed, x2 = memory failed.
   The fault tree (output 1 = chip NOT functioning) is therefore
     F = (x0 & x1) | x2. *)

module P = Socy_core.Pipeline
module D = Socy_defects.Distribution
module Model = Socy_defects.Model

let () =
  (* 1. The fault tree, from the concrete syntax (or build it with the
        Socy_logic.Circuit combinators). *)
  let fault_tree = Socy_logic.Parse.fault_tree ~name:"dual-core" "x0 & x1 | x2" in

  (* 2. The manufacturing-defect model: a negative binomial number of
        defects (industry standard; mean 8 defects, clustering parameter 4)
        and per-component probabilities that a given defect lands on the
        component and kills it. The memory is physically larger, so it
        absorbs more defects. *)
  let defects = D.negative_binomial ~mean:8.0 ~alpha:4.0 in
  let p_core = 0.02 and p_memory = 0.05 in
  let model = Model.create defects [| p_core; p_core; p_memory |] in

  (* 3. Run the combinatorial method with an absolute error bound. *)
  (match P.run ~config:(P.Config.make ~epsilon:1e-4 ()) fault_tree model with
  | Error f -> Printf.printf "failed — %s\n" (P.failure_to_string f)
  | Ok r ->
      Printf.printf "chip yield is in [%.6f, %.6f]\n" r.P.yield_lower r.P.yield_upper;
      Printf.printf "  %d lethal defects analyzed (M), %d-node ROMDD\n" r.P.m
        r.P.romdd_size);

  (* 4. Cross-check with plain Monte Carlo simulation. *)
  let lethal = Model.to_lethal model in
  let mc = Socy_core.Montecarlo.run ~trials:200_000 fault_tree lethal in
  Printf.printf "Monte Carlo (200k trials): %.4f, 95%% CI [%.4f, %.4f]\n"
    mc.Socy_core.Montecarlo.estimate mc.Socy_core.Montecarlo.ci_low
    mc.Socy_core.Montecarlo.ci_high;

  (* 5. Which component should be hardened first? *)
  let gains =
    match
      Socy_core.Importance.yield_gain ~names:[| "core A"; "core B"; "memory" |]
        fault_tree model
    with
    | Ok (_, entries) -> entries
    | Error f -> failwith (P.failure_to_string f)
  in
  print_endline "yield gain if a component were made defect-immune:";
  List.iter
    (fun e ->
      Printf.printf "  %-8s %+.4f  (%.4f -> %.4f)\n" e.Socy_core.Importance.name
        e.Socy_core.Importance.gain e.Socy_core.Importance.base_yield
        e.Socy_core.Importance.hardened_yield)
    gains
