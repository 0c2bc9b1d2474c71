"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


class SampleLengthError(ValueError):
    """A sample is too short for the requested statistic."""


class BlowUpError(ArithmeticError):
    """An integration produced a non-finite state.

    Carries the index of the first offending grid step.  It pickles with
    its step and message, so a worker process can send it back.
    """

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(message or f"non-finite state at grid step {step_index}")

    def __reduce__(self):
        return type(self), (self.step_index, str(self))
