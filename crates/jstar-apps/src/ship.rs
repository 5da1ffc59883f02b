//! The Ship example (§3, Fig. 2) — the paper's tutorial program.
//!
//! A Space-Invaders ship "first goes across the screen to the right in 150
//! pixel jumps, then descends slowly several times, then moves to the left
//! in 150 pixel jumps". Fig. 2 records 8 frames:
//!
//! ```text
//! frame  x    y   dx    dy
//!   0    10   10  150    0
//!   1   160   10  150    0
//!   2   310   10  150    0
//!   3   460   10    0   10
//!   4   460   20    0   10
//!   5   460   30 -150    0
//!   6   310   30 -150    0
//!   7   160   30 -150    0
//! ```
//!
//! Time is modelled as the `frame` timestamp field; the movement rule puts
//! the next frame's Ship from the current one — the canonical
//! "record data that changes over time by adding timestamps" pattern.
//!
//! The table is declared through the typed `jstar_table!` item form, so
//! the one-line declaration of §3 yields both the schema and the [`Ship`]
//! struct the rule body receives.

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// `table Ship(int frame -> int x, int y, int dx, int dy)
    ///  orderby (Int, seq frame)` — §3's declaration, verbatim.
    #[derive(Copy, Eq)]
    pub Ship(int frame -> int x, int y, int dx, int dy)
        orderby (Int, seq frame)
}

/// Backwards-compatible name for one row of the Ship table.
pub type ShipState = Ship;

/// The movement transition of Fig. 2: right in 150 px jumps until x = 460,
/// down in 10 px steps until y = 30, then left in 150 px jumps.
pub fn next_state(s: Ship) -> Ship {
    let (x, y, dx, dy) = (s.x, s.y, s.dx, s.dy);
    // Apply current velocity.
    let (nx, ny) = (x + dx, y + dy);
    // Choose the next velocity.
    let (ndx, ndy) = if dx > 0 && nx >= 460 {
        (0, 10) // reached the right edge: descend
    } else if dy > 0 && ny >= 30 {
        (-150, 0) // descended far enough: head left
    } else {
        (dx, dy)
    };
    Ship {
        frame: s.frame + 1,
        x: nx,
        y: ny,
        dx: ndx,
        dy: ndy,
    }
}

/// Builds the Ship program, stopping after `max_frame` (Fig. 2 uses 7).
pub fn program(max_frame: i64) -> Program {
    let mut p = ProgramBuilder::new();

    // Causality model: out.frame == trig.frame + 1 under guard
    // trig.frame < max_frame.
    let mut cx = ModelCtx::new();
    let guard = vec![cx.trig("frame").lt(&cx.k(max_frame))];
    let bindings = cx.out("frame").eq_(&(cx.trig("frame") + 1));
    let model = CausalityModel {
        ctx: cx,
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "Ship".into(),
            guard,
            bindings,
            label: "advance one frame".into(),
        }],
        queries: vec![],
    };

    p.rule_rel("move", move |ctx, s: Ship| {
        if s.frame < max_frame {
            ctx.put_rel(next_state(s));
        }
    })
    .model(model);

    p.put_rel(Ship {
        frame: 0,
        x: 10,
        y: 10,
        dx: 150,
        dy: 0,
    });
    p.build().expect("ship program builds")
}

/// Runs the program and returns the Ship table sorted by frame.
pub fn run(max_frame: i64, config: EngineConfig) -> Result<Vec<Ship>> {
    let prog = Arc::new(program(max_frame));
    let mut engine = Engine::new(Arc::clone(&prog), config);
    engine.run()?;
    let mut rows = engine.collect_rel(Ship::query());
    rows.sort_by_key(|s| s.frame);
    Ok(rows)
}

/// The 8-frame trace of Fig. 2, for tests and the quickstart example.
pub fn figure2_trace() -> Vec<Ship> {
    let rows = [
        (0, 10, 10, 150, 0),
        (1, 160, 10, 150, 0),
        (2, 310, 10, 150, 0),
        (3, 460, 10, 0, 10),
        (4, 460, 20, 0, 10),
        (5, 460, 30, -150, 0),
        (6, 310, 30, -150, 0),
        (7, 160, 30, -150, 0),
    ];
    rows.iter()
        .map(|&(frame, x, y, dx, dy)| Ship {
            frame,
            x,
            y,
            dx,
            dy,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure_2_sequential() {
        let rows = run(7, EngineConfig::sequential()).unwrap();
        assert_eq!(rows, figure2_trace());
    }

    #[test]
    fn reproduces_figure_2_parallel() {
        let rows = run(7, EngineConfig::parallel(4)).unwrap();
        assert_eq!(rows, figure2_trace());
    }

    #[test]
    fn causality_model_is_proved() {
        let prog = program(7);
        assert!(prog.validate_strict().is_ok());
    }

    #[test]
    fn longer_runs_wrap_left() {
        let rows = run(10, EngineConfig::sequential()).unwrap();
        assert_eq!(rows.len(), 11);
        // Frame 8 and 9 continue left.
        assert_eq!(rows[8].x, 10);
        assert_eq!(rows[8].dx, -150);
    }

    #[test]
    fn transition_function_is_deterministic() {
        let mut s = figure2_trace()[0];
        for expected in figure2_trace().iter().skip(1) {
            s = next_state(s);
            assert_eq!(s, *expected);
        }
    }

    #[test]
    fn typed_queries_address_fields_by_name() {
        let prog = Arc::new(program(7));
        let mut engine = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        engine.run().unwrap();
        // All frames at the right edge: Ship::x is a compile-checked token.
        let at_edge = engine.collect_rel(Ship::query().eq(Ship::x, 460));
        assert_eq!(at_edge.len(), 3);
        let descending = engine.collect_rel(Ship::query().gt(Ship::dy, 0));
        assert!(descending.iter().all(|s| s.dx == 0));
    }
}
