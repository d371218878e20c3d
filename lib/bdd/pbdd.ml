type t = { mutable created : int }

let create ?node_limit:_ ?cpu_limit:_ ?cache_bits:_ ~team:_ ~num_vars:_ () = { created = 0 }
let created t = t.created
