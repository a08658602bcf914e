//! Small numeric helpers and a flat JSON object writer (the benchmark's
//! output is read by `run.py`; no JSON crate is available offline).

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A flat JSON object, keys in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.fields.push((key.to_string(), format!("{value:?}")));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if (c as u32) < 0x20 => vec![' '],
                c => vec![c],
            })
            .collect();
        self.fields.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}
