module Model = Socy_defects.Model

type entry = {
  component : int;
  name : string;
  base_yield : float;
  hardened_yield : float;
  gain : float;
}

let yield_gain ?(config = Pipeline.default_config) ?names fault_tree model =
  match Pipeline.run ~config fault_tree model with
  | Error _ as e -> e
  | Ok report ->
      let base = report.Pipeline.yield_lower in
      let name i =
        match names with
        | Some a when i < Array.length a -> a.(i)
        | Some _ | None -> Printf.sprintf "component %d" i
      in
      let entries =
        List.filter_map
          (fun i ->
            let affect = Array.copy model.Model.affect in
            affect.(i) <- 0.0;
            let hardened = Model.create model.Model.defects affect in
            match Pipeline.run ~config fault_tree hardened with
            | Error _ -> None
            | Ok r ->
                Some
                  {
                    component = i;
                    name = name i;
                    base_yield = base;
                    hardened_yield = r.Pipeline.yield_lower;
                    gain = r.Pipeline.yield_lower -. base;
                  })
          (List.init (Model.num_components model) Fun.id)
      in
      Ok (report, List.sort (fun a b -> compare b.gain a.gain) entries)
