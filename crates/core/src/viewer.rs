//! `ScalAna-viewer` stand-in: map report locations back to code.
//!
//! The paper's GUI shows the root-cause vertices with their calling
//! paths (upper pane) and the corresponding code snippets (lower pane).
//! This module produces the lower pane: given a `file:line` from a
//! report, find the statement planted at that location and pretty-print
//! it.

use scalana_detect::DetectionReport;
use scalana_lang::ast::{Block, Program, Stmt, StmtKind};
use scalana_lang::pretty;
use std::fmt::Write as _;

/// Find the statement at a report location (`file:line`).
pub fn find_stmt<'p>(program: &'p Program, location: &str) -> Option<&'p Stmt> {
    fn walk<'p>(block: &'p Block, location: &str) -> Option<&'p Stmt> {
        for stmt in &block.stmts {
            if stmt.span.file_line() == location {
                return Some(stmt);
            }
            let found = match &stmt.kind {
                StmtKind::For { body, .. } | StmtKind::While { body, .. } => walk(body, location),
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => walk(then_block, location)
                    .or_else(|| else_block.as_ref().and_then(|b| walk(b, location))),
                _ => None,
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    program
        .functions
        .iter()
        .find_map(|f| walk(&f.body, location))
}

/// Pretty-print the statement at a location, if it exists.
pub fn code_snippet(program: &Program, location: &str) -> Option<String> {
    let stmt = find_stmt(program, location)?;
    // Render via a one-statement block, then strip the braces.
    let mut out = String::new();
    let block = Block {
        stmts: vec![stmt.clone()],
    };
    let func = scalana_lang::ast::Function {
        name: "__snippet".to_string(),
        params: vec![],
        body: block,
        span: stmt.span.clone(),
    };
    let program = Program {
        file_name: String::new(),
        params: vec![],
        functions: vec![func],
        next_node_id: 0,
        lowered: None,
    };
    let printed = pretty::print_program(&program);
    for line in printed.lines() {
        if line.starts_with("fn __snippet") || line.trim() == "}" && out.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{}", line.strip_prefix("    ").unwrap_or(line));
    }
    // Drop the trailing function brace.
    let trimmed = out.trim_end().trim_end_matches('}').trim_end().to_string();
    Some(trimmed)
}

/// Render the GUI-style view: report plus code snippets for the top
/// root causes.
pub fn render_with_snippets(program: &Program, report: &DetectionReport, top: usize) -> String {
    let mut out = report.render();
    let _ = writeln!(out, "\n-- Code snippets --");
    for cause in report.root_causes.iter().take(top) {
        let _ = writeln!(out, "  [{}] ({})", cause.location, cause.kind);
        match code_snippet(program, &cause.location) {
            Some(snippet) => {
                for line in snippet.lines() {
                    let _ = writeln!(out, "    | {line}");
                }
            }
            None => {
                let _ = writeln!(out, "    | <statement not in primary source>");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_lang::builder::*;

    fn program_with_planted_loop() -> Program {
        let mut b = ProgramBuilder::new("main.mmpi");
        b.function("main", &[], |f| {
            f.at("bval3d.F", 155);
            f.for_("j", int(0), int(8), |f| {
                f.comp_cycles(int(100));
            });
            f.allreduce(int(8));
        });
        b.finish().unwrap()
    }

    #[test]
    fn finds_planted_statement() {
        let program = program_with_planted_loop();
        let stmt = find_stmt(&program, "bval3d.F:155").expect("found");
        assert!(matches!(stmt.kind, StmtKind::For { .. }));
        assert!(find_stmt(&program, "nowhere.c:1").is_none());
    }

    #[test]
    fn snippet_renders_the_loop() {
        let program = program_with_planted_loop();
        let snippet = code_snippet(&program, "bval3d.F:155").expect("snippet");
        assert!(snippet.contains("for j in 0 .. 8"), "snippet: {snippet}");
        assert!(snippet.contains("comp(cycles = 100)"));
    }

    #[test]
    fn render_with_snippets_handles_missing_locations() {
        let program = program_with_planted_loop();
        let report = DetectionReport {
            non_scalable: vec![],
            abnormal: vec![],
            paths: vec![],
            root_causes: vec![scalana_detect::RootCause {
                vertex: 0,
                kind: "Loop".into(),
                location: "ghost.F:9".into(),
                func: "main".into(),
                path_count: 1,
                score: 1.0,
                mean_time: 0.1,
                time_imbalance: 2.0,
                ins_imbalance: 1.0,
            }],
        };
        let text = render_with_snippets(&program, &report, 3);
        assert!(text.contains("not in primary source"));
    }
}
