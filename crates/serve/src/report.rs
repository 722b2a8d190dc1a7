//! Self-contained HTML report for one served job.
//!
//! `GET /v1/jobs/<digest>/report` renders the job record — state,
//! tenants, supervisor attempt timeline — plus the artefact JSON into
//! a single dependency-free HTML page, in the same page shell as the
//! run reports the CLI writes under `results/`.

use darksil_json::Json;
use darksil_obs::svg::{esc, html_page};

use crate::registry::JobRecord;

fn attempt_row(attempt: &Json) -> String {
    let field = |name: &str| -> String {
        match attempt {
            Json::Obj(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| match value {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => format!("{n}"),
                    Json::Bool(b) => b.to_string(),
                    Json::Null => String::from("—"),
                    other => other.compact(),
                })
                .unwrap_or_else(|| String::from("—")),
            _ => String::from("—"),
        }
    };
    format!(
        "<tr><td class=\"num\">{}</td><td>{}</td><td class=\"num\">{}</td><td>{}</td></tr>",
        esc(&field("attempt")),
        esc(&field("outcome")),
        esc(&field("backoff_ms")),
        esc(&field("error")),
    )
}

/// Renders the report page. `artefact` is the finished payload when
/// one exists.
#[must_use]
pub fn render(record: &JobRecord, artefact: Option<&Json>) -> String {
    let mut body = format!("<h1>Job <code>{}</code></h1>\n", esc(&record.digest));
    body.push_str(&format!(
        "<p class=\"subtitle\">state: <strong>{}</strong> · tenants: {} · {:.3}s</p>\n",
        esc(record.state.label()),
        esc(&record.tenants.join(", ")),
        record.seconds
    ));
    if let Some(error) = &record.error {
        body.push_str(&format!("<p>error: <code>{}</code></p>\n", esc(error)));
    }
    if let Some(cache) = &record.cache {
        body.push_str(&format!("<p>cache: {}</p>\n", esc(cache)));
    }
    if record.attempts.is_empty() {
        body.push_str("<p class=\"note\">No attempts recorded yet.</p>\n");
    } else {
        body.push_str(
            "<h2>Attempts</h2>\n<table><tr><th class=\"num\">#</th><th>outcome</th>\
             <th class=\"num\">backoff&nbsp;ms</th><th>error</th></tr>\n",
        );
        for attempt in &record.attempts {
            body.push_str(&attempt_row(attempt));
            body.push('\n');
        }
        body.push_str("</table>\n");
    }
    if let Some(payload) = artefact {
        body.push_str("<h2>Artefact</h2>\n<pre>");
        body.push_str(&esc(&payload.pretty()));
        body.push_str("</pre>\n");
    }
    html_page(&format!("darksil job {}", record.digest), &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::JobState;

    #[test]
    fn report_escapes_and_includes_the_timeline() {
        let record = JobRecord {
            digest: "abc<123>".to_string(),
            tenants: vec!["<script>".to_string()],
            state: JobState::Done,
            error: None,
            attempts: vec![
                Json::Obj(vec![
                    ("attempt".to_string(), Json::Num(0.0)),
                    ("outcome".to_string(), Json::Str("solver".to_string())),
                    ("backoff_ms".to_string(), Json::Num(50.0)),
                    ("error".to_string(), Json::Str("[solver] boom".to_string())),
                ]),
                Json::Obj(vec![
                    ("attempt".to_string(), Json::Num(1.0)),
                    ("outcome".to_string(), Json::Str("ok".to_string())),
                    ("backoff_ms".to_string(), Json::Num(0.0)),
                ]),
            ],
            seconds: 0.25,
            cache: Some("miss".to_string()),
            transitions: Vec::new(),
        };
        let payload = Json::Obj(vec![("name".to_string(), Json::Str("x".to_string()))]);
        let html = render(&record, Some(&payload));
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert!(
            html.contains("<title>darksil job abc&lt;123&gt;</title>"),
            "title must be escaped: {html}"
        );
        assert!(html.contains("&lt;script&gt;"), "tenant must be escaped");
        assert!(!html.contains("<script"), "no raw tenant injection");
        // Header row plus one row per attempt, four columns each.
        assert_eq!(html.matches("<tr>").count(), 3, "{html}");
        assert!(html.contains(
            "<tr><td class=\"num\">0</td><td>solver</td><td class=\"num\">50</td>\
             <td>[solver] boom</td></tr>"
        ));
        assert!(html.contains("<td>ok</td>"), "{html}");
        assert!(html.contains("<h2>Artefact</h2>"), "{html}");
    }
}
