"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class FrontSolveError(RuntimeError):
    """An implicit wave-front solve failed to converge or lost ordering."""

    def __init__(self, msg, sigma):
        super().__init__(msg)
        self.sigma = sigma


class CellBuildError(RuntimeError):
    """A cell construction failed; carries the cell indices."""

    def __init__(self, j, n, code, msg):
        super().__init__(f"cell (j={j}, n={n}): {msg} [code {code}]")
        self.j = j
        self.n = n
        self.code = code
